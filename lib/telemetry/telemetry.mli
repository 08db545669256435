(** Live telemetry hub and HTTP server.

    One {!t} owns the scrape surface of a process: a metrics registry
    (seeded with [elastic_build_info]), an optional live
    {!Elastic_runner.Progress} plane with its heartbeat {!Watchdog},
    and an optional {!Elastic_obs.Collector} span source.  {!handle}
    answers a request target with [(status, content-type, body)] — it
    is independent of sockets, so tests and the shell can drive it
    directly — and {!start} puts a real HTTP/1.1 listener in front of
    it on a background thread (stdlib [Unix] + [Thread] only; binds
    localhost by default; [Connection: close] per request).

    Endpoints:
    - [/metrics] — Prometheus text exposition of the registry merged
      with the campaign's incremental snapshot ({!Progress.merged});
    - [/status] — campaign status JSON,
      schema [elastic-speculation/status/v1];
    - [/spans.jsonl] — span ledger JSONL,
      schema [elastic-speculation/spans/v1];
    - [/healthz] — [200 ok] while every running shard beats within the
      watchdog deadline, [503] otherwise (recovers when beats resume).

    Sources are swappable mid-flight ({!set_progress},
    {!set_collector}): a long-lived [serve] session in the shell keeps
    one hub across successive campaigns. *)

type t

(** Version string stamped into [elastic_build_info]. *)
val version : string


(** [create ()] — a hub with no progress plane and no collector.
    @param clock used for the uptime gauge (default
      [Clock.monotonic]); the watchdog runs on the {e progress
      plane's} clock.
    @param deadline_s heartbeat budget handed to watchdogs armed by
      {!set_progress} (default [5.0]).
    @param registry scrape registry (default: fresh).  Seeded with
      [elastic_build_info] either way.
    @raise Invalid_argument on a non-positive deadline. *)
val create :
  ?clock:Elastic_sim.Clock.t ->
  ?deadline_s:float ->
  ?registry:Elastic_metrics.Metrics.t ->
  unit ->
  t

val registry : t -> Elastic_metrics.Metrics.t

(** Attach (or detach, with [None]) the live progress plane.  Arms a
    fresh watchdog over it with the hub's deadline. *)
val set_progress : t -> Elastic_runner.Progress.t option -> unit

val set_collector : t -> Elastic_obs.Collector.t option -> unit

(** The watchdog armed by the last {!set_progress}, if any. *)
val watchdog : t -> Watchdog.t option

(** [handle t ~meth ~target] answers one request:
    [(status code, content type, body)].  Non-[GET] methods get 405,
    unknown targets 404; query strings are ignored.  Thread-safe. *)
val handle : t -> meth:string -> target:string -> int * string * string

(** [start ~port t] binds [host:port] (default host [127.0.0.1];
    [port = 0] picks an ephemeral port) and serves on a background
    thread.  Returns the bound port, or [Error] if already serving or
    the bind fails. *)
val start : ?host:string -> port:int -> t -> (int, string) result

(** Bound port while serving. *)
val port : t -> int option

(** Graceful shutdown: idempotent; joins the server thread (in-flight
    response finishes first), then closes the listener. *)
val stop : t -> unit
