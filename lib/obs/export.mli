(** Span ledger exports.

    Three renderings of one merged span list:

    - {!jsonl}: the versioned machine-readable ledger
      (schema {!schema} = ["elastic-speculation/spans/v1"]) — a header
      line naming the schema, campaign and time base, then one
      {!Span.to_json} object per line;
    - {!chrome_json}: Chrome trace-event JSON (the ["traceEvents"]
      array form) loadable in Perfetto / [chrome://tracing], process
      ["elastic-speculation"] with one named track per worker, ["X"] complete events with microsecond
      timestamps sorted monotonically;
    - {!folded}: collapsed stacks ([campaign;shard;attempt;settle N])
      with self-time values in microseconds, aggregated by kind path,
      ready for [flamegraph.pl] / speedscope. *)

val schema : string

(** Earliest span start, the time base every export subtracts; [0L]
    for an empty list. *)
val base_ns : Span.t list -> int64

val jsonl : ?campaign:string -> Span.t list -> string

val write_jsonl : path:string -> ?campaign:string -> Span.t list -> unit

val chrome_json : Span.t list -> Elastic_metrics.Json.t

val write_chrome : path:string -> Span.t list -> unit

val folded : Span.t list -> string

val write_folded : path:string -> Span.t list -> unit
