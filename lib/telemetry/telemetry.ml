module Metrics = Elastic_metrics.Metrics
module Prometheus = Elastic_metrics.Prometheus
module Json = Elastic_metrics.Json
module Clock = Elastic_sim.Clock
module Progress = Elastic_runner.Progress
module Status = Elastic_runner.Status
module Collector = Elastic_obs.Collector
module Export = Elastic_obs.Export

let version = "1.0"

(* Registers and sets the constant-1 [elastic_build_info] gauge with
   [version], [pool] ([domains]/[seq]) and [eval_mode] labels
   (idempotent): standard Prometheus practice, a constant-1 gauge whose
   labels identify the binary behind the scrape. *)
let build_info reg =
  Metrics.Gauge.set
    (Metrics.gauge reg
       ~help:"constant 1; labels identify the serving binary"
       ~labels:
         [ ("version", version);
           ("pool",
            if Elastic_runner.Pool_backend.parallel then "domains"
            else "seq");
           ("eval_mode",
            Elastic_sim.Engine.(mode_name default_mode)) ]
       "elastic_build_info")
    1.0

(* ------------------------------------------------------------------ *)
(* The hub: swappable telemetry sources behind one handler.            *)

type server = {
  sv_sock : Unix.file_descr;
  sv_port : int;
  mutable sv_thread : Thread.t option;
}

type t = {
  t_registry : Metrics.t;
  t_clock : Clock.t;
  t_started_ns : int64;
  t_deadline_s : float;
  t_lock : Mutex.t;
  mutable t_progress : Progress.t option;
  mutable t_watchdog : Watchdog.t option;
  mutable t_collector : Collector.t option;
  mutable t_server : server option;
  mutable t_stop : bool;
}

let endpoints = [ "/"; "/metrics"; "/status"; "/spans.jsonl"; "/healthz" ]

let create ?(clock = Clock.monotonic) ?(deadline_s = 5.0)
    ?(registry = Metrics.create ()) () =
  if deadline_s <= 0.0 then
    invalid_arg "Telemetry.create: deadline_s must be > 0";
  build_info registry;
  { t_registry = registry;
    t_clock = clock;
    t_started_ns = clock ();
    t_deadline_s = deadline_s;
    t_lock = Mutex.create ();
    t_progress = None;
    t_watchdog = None;
    t_collector = None;
    t_server = None;
    t_stop = false }

let locked t f =
  Mutex.lock t.t_lock;
  match f () with
  | v ->
    Mutex.unlock t.t_lock;
    v
  | exception e ->
    Mutex.unlock t.t_lock;
    raise e

let registry t = t.t_registry

let set_progress t p =
  locked t (fun () ->
      t.t_progress <- p;
      t.t_watchdog <-
        (match p with
         | Some p ->
           Some
             (Watchdog.create ~deadline_s:t.t_deadline_s
                ~registry:t.t_registry p)
         | None -> None))

let set_collector t c = locked t (fun () -> t.t_collector <- c)

let watchdog t = locked t (fun () -> t.t_watchdog)

(* ------------------------------------------------------------------ *)
(* Request handling (pure of sockets: also driven directly by tests).  *)

let count_request t target =
  let path = if List.mem target endpoints then target else "other" in
  Metrics.Counter.inc
    (Metrics.counter t.t_registry
       ~help:"telemetry requests served, by endpoint"
       ~labels:[ ("path", path) ]
       "elastic_telemetry_requests_total")

let wd_check t =
  match t.t_watchdog with None -> () | Some w -> Watchdog.check w

let health t =
  match t.t_watchdog with
  | None -> (true, 0)
  | Some w -> (Watchdog.healthy w, Watchdog.stalls w)

let index_body =
  "elastic-speculation live telemetry\n\
   endpoints:\n\
  \  /metrics     Prometheus text exposition (merged live snapshot)\n\
  \  /status      campaign status JSON (elastic-speculation/status/v1)\n\
  \  /spans.jsonl span ledger JSONL (elastic-speculation/spans/v1)\n\
  \  /healthz     200 while every running shard beats, 503 on a stall\n"

let metrics_body t =
  Metrics.Gauge.set
    (Metrics.gauge t.t_registry
       ~help:"seconds since the telemetry hub was created"
       "elastic_telemetry_uptime_seconds")
    (Clock.seconds_between t.t_started_ns (t.t_clock ()));
  let merged =
    match t.t_progress with
    | Some p -> Metrics.merge (Progress.merged p) (Metrics.snapshot t.t_registry)
    | None -> Metrics.snapshot t.t_registry
  in
  Prometheus.render merged

let status_body t =
  let healthy, stalls = health t in
  let utilization =
    match (t.t_progress, t.t_collector) with
    | Some p, Some c ->
      Collector.utilization c ~wall_seconds:(Progress.elapsed_seconds p)
    | _ -> []
  in
  Json.to_string (Status.of_progress ~healthy ~stalls ~utilization t.t_progress)
  ^ "\n"

let spans_body t =
  let campaign =
    match t.t_progress with Some p -> Some (Progress.name p) | None -> None
  in
  let spans =
    match t.t_collector with Some c -> Collector.spans c | None -> []
  in
  Export.jsonl ?campaign spans

(* [(status, content-type, body)] for one request target. *)
let handle t ~meth ~target =
  locked t (fun () ->
      (* Strip any query string: /status?x=y addresses /status. *)
      let target =
        match String.index_opt target '?' with
        | Some q -> String.sub target 0 q
        | None -> target
      in
      count_request t target;
      if not (String.equal meth "GET") then
        (405, "text/plain; charset=utf-8",
         Fmt.str "method %s not allowed (GET only)\n" meth)
      else
        match target with
        | "/" -> (200, "text/plain; charset=utf-8", index_body)
        | "/metrics" ->
          wd_check t;
          (200, "text/plain; version=0.0.4; charset=utf-8", metrics_body t)
        | "/status" ->
          wd_check t;
          (200, "application/json; charset=utf-8", status_body t)
        | "/spans.jsonl" ->
          (200, "application/x-ndjson; charset=utf-8", spans_body t)
        | "/healthz" ->
          wd_check t;
          let healthy, stalls = health t in
          if healthy then (200, "text/plain; charset=utf-8", "ok\n")
          else
            (503, "text/plain; charset=utf-8",
             Fmt.str "stalled: %d heartbeat deadline miss(es)\n" stalls)
        | _ ->
          (404, "text/plain; charset=utf-8",
           Fmt.str "no such endpoint %s (try /)\n" target))

(* ------------------------------------------------------------------ *)
(* The socket server: one accept thread, connections handled inline.   *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let k = Unix.write fd b off (n - off) in
      if k > 0 then go (off + k)
  in
  go 0

let serve_connection t fd =
  (* A stuck or byte-at-a-time client must not wedge the scrape plane:
     bound every read. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let respond status content_type body =
    write_all fd (Http.response ~status ~content_type body)
  in
  let rec read_loop () =
    match Http.parse (Buffer.contents buf) with
    | Ok req ->
      let status, content_type, body =
        handle t ~meth:req.Http.meth ~target:req.Http.target
      in
      respond status content_type body
    | Error (Http.Malformed m) -> respond 400 "text/plain" (m ^ "\n")
    | Error Http.Too_long ->
      respond 413 "text/plain" "request head too large\n"
    | Error Http.Incomplete ->
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k > 0 then begin
        Buffer.add_subbytes buf chunk 0 k;
        read_loop ()
      end
      (* k = 0: client closed before completing the request — drop. *)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try read_loop () with Unix.Unix_error _ -> ())

let accept_loop t sv =
  while not t.t_stop do
    (* The watchdog must notice a stall even when nobody scrapes. *)
    (try locked t (fun () -> wd_check t) with _ -> ());
    match Unix.select [ sv.sv_sock ] [] [] 0.05 with
    | [ _ ], _, _ -> (
        match Unix.accept sv.sv_sock with
        | fd, _ -> (try serve_connection t fd with _ -> ())
        | exception Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  done

let start ?(host = "127.0.0.1") ~port t =
  locked t (fun () ->
      match t.t_server with
      | Some sv -> Error (Fmt.str "already serving on port %d" sv.sv_port)
      | None -> (
          match
            let addr =
              try Unix.inet_addr_of_string host
              with Failure _ -> raise (Invalid_argument host)
            in
            let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            (try
               Unix.setsockopt sock Unix.SO_REUSEADDR true;
               Unix.bind sock (Unix.ADDR_INET (addr, port));
               Unix.listen sock 16
             with e ->
               (try Unix.close sock with Unix.Unix_error _ -> ());
               raise e);
            let bound_port =
              match Unix.getsockname sock with
              | Unix.ADDR_INET (_, p) -> p
              | Unix.ADDR_UNIX _ -> port
            in
            (sock, bound_port)
          with
          | sock, bound_port ->
            let sv = { sv_sock = sock; sv_port = bound_port;
                       sv_thread = None } in
            t.t_stop <- false;
            t.t_server <- Some sv;
            sv.sv_thread <- Some (Thread.create (accept_loop t) sv);
            Ok bound_port
          | exception Unix.Unix_error (e, _, _) ->
            Error
              (Fmt.str "cannot bind %s:%d: %s" host port
                 (Unix.error_message e))
          | exception Invalid_argument h ->
            Error (Fmt.str "bad listen address %S" h)))

let port t =
  locked t (fun () ->
      match t.t_server with Some sv -> Some sv.sv_port | None -> None)

let stop t =
  let sv =
    locked t (fun () ->
        let sv = t.t_server in
        t.t_server <- None;
        t.t_stop <- true;
        sv)
  in
  match sv with
  | None -> ()
  | Some sv ->
    (* Graceful: the accept thread notices the flag within one select
       timeout, finishes any in-flight response first, and only then
       does the listening socket close. *)
    (match sv.sv_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close sv.sv_sock with Unix.Unix_error _ -> ())
