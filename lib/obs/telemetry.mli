(** Live resource telemetry: a sampling collector for GC pressure and
    peak RSS, feeding the {!Obs} gauge registry (and from there the
    Prometheus text and the summary exporter). {!sample} is
    pull-based and gated on {!Obs.is_enabled}; nothing here runs on the
    stores' insert path. *)

val peak_rss_bytes : unit -> int
(** High-water resident set size: [VmHWM] from [/proc/self/status],
    falling back to the GC top-of-heap size where /proc is absent. *)

val sample : unit -> unit
(** Take one sample: refresh the GC/RSS gauges ([telemetry.*]) and the
    [slo.epoch_close_p99_ms] gauge. No-op when {!Obs} is disabled. *)

(** {1 Epoch-close latency SLO}

    The analyzer times its handling of every epoch-close event and
    reports it here; the p99 lands on [/metrics] as the
    [slo.epoch_close_p99_ms] gauge (refreshed by {!sample}), and each
    close slower than the threshold increments the
    [slo.epoch_close_burn_total] burn counter — the pair a scrape-based
    alert needs (current level + budget burn). *)

val note_epoch_close : float -> unit
(** Record one epoch-close handling duration (seconds). Feeds the
    [analyzer.epoch_close_ns] histogram; increments the burn counter
    when the duration exceeds the threshold. No-op when {!Obs} is
    disabled. *)

val slo_epoch_close_ms : unit -> float
(** The burn threshold in milliseconds (default 100). *)

val set_slo_epoch_close_ms : float -> unit
(** Override the threshold; non-positive values are ignored. The CLI,
    bench and examples set it once from the run configuration
    ([RMA_SLO_EPOCH_CLOSE_MS]). *)
