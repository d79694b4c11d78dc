(** Prometheus text-format dump of the registry: counters and gauges as
    single samples, histograms as summaries with p50/p95/p99 quantile
    labels plus [_sum]/[_count], and an [rma_run_info] gauge carrying
    the journal's run id as a label. Metric names are sanitised to the
    Prometheus charset with an [rma_] prefix; HELP text and label
    values are escaped per the exposition format. *)

val to_text : ?filter:(string -> bool) -> unit -> string
(** [filter] receives the {e raw} registry name (plus ["run_info"] for
    the synthetic run-id gauge) and selects which families to render;
    default keeps everything. *)

val write : path:string -> unit -> unit

val escape_label_value : string -> string
(** Escape backslash, newline and double quote for label values. *)
