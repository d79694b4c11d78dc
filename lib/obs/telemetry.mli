(** Resource telemetry: GC pressure and peak RSS, feeding the {!Obs}
    gauge registry (and from there the Prometheus text and the summary
    exporter). {!sample} is pull-based and gated on {!Obs.is_enabled}:
    it runs where metrics are read (the report layer's export bracket
    and the serve daemon's [/metrics]), never on a detector's path. GC
    word counts are cumulative and VmHWM is a high-water mark, so one
    sample at read time loses nothing. *)

val peak_rss_bytes : unit -> int
(** High-water resident set size: [VmHWM] from [/proc/self/status],
    falling back to the GC top-of-heap size where /proc is absent. *)

val sample : unit -> unit
(** Take one sample: refresh the GC/RSS gauges ([telemetry.*]). No-op
    when {!Obs} is disabled. *)
