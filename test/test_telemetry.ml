(* lib/telemetry: HTTP parsing (unit + qcheck fuzz — no input may
   raise), the heartbeat watchdog on a deterministic injected clock
   (stall / recover / episode counting), the hub's endpoint handler,
   the socket server end to end on an ephemeral port, and the shell's
   serve / --serve / runner status --json surface. *)

module Http = Elastic_telemetry.Http
module Watchdog = Elastic_telemetry.Watchdog
module Telemetry = Elastic_telemetry.Telemetry
module Progress = Elastic_runner.Progress
module Runner = Elastic_runner.Runner
module Metrics = Elastic_metrics.Metrics
module Json = Elastic_metrics.Json
module Clock = Elastic_sim.Clock
module Shell = Elastic_core.Shell

let valid_request = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n"

(* ------------------------------------------------------------------ *)
(* HTTP parsing                                                        *)

let test_http_parse () =
  (match Http.parse valid_request with
   | Ok r ->
     Alcotest.(check string) "meth" "GET" r.Http.meth;
     Alcotest.(check string) "target" "/metrics" r.Http.target
   | Error _ -> Alcotest.fail "valid request rejected");
  (match Http.parse "GET /x HTTP/1.0\n\n" with
   | Ok r -> Alcotest.(check string) "bare-LF target" "/x" r.Http.target
   | Error _ -> Alcotest.fail "bare-LF client rejected");
  let malformed s =
    match Http.parse s with
    | Error (Http.Malformed _) -> ()
    | Ok _ -> Alcotest.failf "%S parsed" s
    | Error _ -> Alcotest.failf "%S not flagged malformed" s
  in
  malformed "BOGUS\r\n\r\n";
  malformed "GET noslash HTTP/1.1\r\n\r\n";
  malformed "GET /x SPDY/3\r\n\r\n";
  malformed "GET  /x HTTP/1.1\r\n\r\n";
  malformed "G@T /x HTTP/1.1\r\n\r\n";
  (* The request line alone is enough to answer 400: no terminator
     needed. *)
  malformed "BOGUS\r\n";
  (match Http.parse "GET /x HTTP/1.1\r\nHost: h\r\n" with
   | Error Http.Incomplete -> ()
   | _ -> Alcotest.fail "unterminated head should be Incomplete");
  (match Http.parse (String.make (Http.max_head_bytes + 1) 'A') with
   | Error Http.Too_long -> ()
   | _ -> Alcotest.fail "oversized head should be Too_long")

let test_http_response () =
  let r = Http.response ~status:503 ~content_type:"text/plain" "nope\n" in
  Alcotest.(check bool) "status line" true
    (Helpers.contains r "HTTP/1.1 503 Service Unavailable");
  Alcotest.(check bool) "length" true
    (Helpers.contains r "Content-Length: 5");
  Alcotest.(check bool) "close" true
    (Helpers.contains r "Connection: close")

let qcheck_http =
  let open QCheck in
  [ QCheck_alcotest.to_alcotest
      (Test.make ~name:"qcheck: no byte soup makes the parser raise"
         ~count:2000
         (string_gen Gen.(map Char.chr (int_bound 255)))
         (fun s ->
            match Http.parse s with
            | Ok _ | Error _ -> true));
    QCheck_alcotest.to_alcotest
      (Test.make
         ~name:"qcheck: torn reads of a valid request are Incomplete"
         ~count:200
         (int_bound (String.length valid_request - 1))
         (fun n ->
            (* Every strict prefix — a partial TCP read — asks for more
               bytes rather than parsing or erroring. *)
            match Http.parse (String.sub valid_request 0 n) with
            | Error Http.Incomplete -> true
            | Ok _ | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (Test.make
         ~name:"qcheck: junk appended to a full head never unparses it"
         ~count:500 (string_gen Gen.printable)
         (fun junk ->
            match Http.parse (valid_request ^ junk) with
            | Ok r -> r.Http.target = "/metrics"
            | Error _ -> false)) ]

(* ------------------------------------------------------------------ *)
(* Watchdog on a deterministic clock                                   *)

(* One ticker reading = one second.  Readings: Progress.create takes
   one, the test takes one for start_shard and complete, beat takes
   one, every Watchdog.check takes exactly one — so stall timing below
   is exact, not timing dependent. *)
let test_watchdog_stall_recover () =
  let clock = Clock.ticker ~step_ns:1_000_000_000L in
  let p = Progress.create ~clock ~name:"wd" ~ids:[| "a"; "b" |] () in
  let reg = Metrics.create () in
  let w = Watchdog.create ~deadline_s:3.0 ~registry:reg p in
  Watchdog.check w;
  Alcotest.(check bool) "idle plane is healthy" true (Watchdog.healthy w);
  Progress.start_shard p ~shard:0 ~worker:0 ~attempt:1 ~now:(clock ());
  (* beat at t=3s; checks read t=4,5,6 (age 1,2,3 <= deadline)... *)
  Watchdog.check w;
  Watchdog.check w;
  Watchdog.check w;
  Alcotest.(check bool) "within deadline" true (Watchdog.healthy w);
  Alcotest.(check int) "no episode yet" 0 (Watchdog.stalls w);
  (* ...and t=7 (age 4 > 3): the stall. *)
  Watchdog.check w;
  Alcotest.(check bool) "stalled" false (Watchdog.healthy w);
  Alcotest.(check int) "one episode" 1 (Watchdog.stalls w);
  (* More polls of the same stall are NOT more episodes. *)
  Watchdog.check w;
  Watchdog.check w;
  Alcotest.(check int) "still one episode" 1 (Watchdog.stalls w);
  (* The worker comes back: one beat and the next check is healthy. *)
  Progress.beat p ~shard:0;
  Watchdog.check w;
  Alcotest.(check bool) "recovered" true (Watchdog.healthy w);
  Alcotest.(check int) "episode count kept" 1 (Watchdog.stalls w);
  (* Silence again: a second, distinct episode. *)
  Watchdog.check w;
  Watchdog.check w;
  Watchdog.check w;
  Alcotest.(check bool) "stalled again" false (Watchdog.healthy w);
  Alcotest.(check int) "two episodes" 2 (Watchdog.stalls w);
  (* Completion clears the flag for good: completed shards never
     stall, however stale their last beat. *)
  Progress.complete p ~shard:0 ~now:(clock ()) ~seconds:1.0 [];
  Watchdog.check w;
  Watchdog.check w;
  Watchdog.check w;
  Watchdog.check w;
  Alcotest.(check bool) "healthy after completion" true
    (Watchdog.healthy w);
  Alcotest.(check int) "episodes frozen" 2 (Watchdog.stalls w)

let test_watchdog_pending_never_stalls () =
  let clock = Clock.ticker ~step_ns:1_000_000_000L in
  let p = Progress.create ~clock ~name:"wd" ~ids:[| "a" |] () in
  let w = Watchdog.create ~deadline_s:1.0 ~registry:(Metrics.create ()) p in
  for _ = 1 to 50 do Watchdog.check w done;
  Alcotest.(check bool) "pending shard never stalls" true
    (Watchdog.healthy w);
  Alcotest.(check int) "no episodes" 0 (Watchdog.stalls w)

(* ------------------------------------------------------------------ *)
(* Hub handler (no sockets)                                            *)

let test_handle_endpoints () =
  let hub = Telemetry.create () in
  let get target = Telemetry.handle hub ~meth:"GET" ~target in
  let code, _, body = get "/healthz" in
  Alcotest.(check int) "healthz" 200 code;
  Alcotest.(check string) "ok body" "ok\n" body;
  let code, ctype, body = get "/metrics" in
  Alcotest.(check int) "metrics" 200 code;
  Alcotest.(check bool) "prometheus content type" true
    (Helpers.contains ctype "version=0.0.4");
  Alcotest.(check bool) "build info present" true
    (Helpers.contains body "elastic_build_info{");
  Alcotest.(check bool) "request counter present" true
    (Helpers.contains body "elastic_telemetry_requests_total");
  let code, _, body = get "/status" in
  Alcotest.(check int) "status" 200 code;
  (match Json.parse body with
   | Ok j ->
     Alcotest.(check bool) "schema" true
       (Json.member "schema" j
        = Some (Json.Str "elastic-speculation/status/v1"));
     Alcotest.(check bool) "idle source" true
       (Json.member "source" j = Some (Json.Str "idle"))
   | Error m -> Alcotest.failf "status not JSON: %s" m);
  let code, _, _ = get "/spans.jsonl" in
  Alcotest.(check int) "spans" 200 code;
  let code, _, _ = get "/nope" in
  Alcotest.(check int) "404" 404 code;
  let code, _, _ = get "/status?pretty=1" in
  Alcotest.(check int) "query string ignored" 200 code;
  let code, _, _ = Telemetry.handle hub ~meth:"POST" ~target:"/metrics" in
  Alcotest.(check int) "405" 405 code

let int_field j k =
  match Json.member k j with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "status field %S missing" k

(* Runner integration: progress published during a real (tiny) run,
   status counts summing to the shard total, watchdog quiet. *)
let test_handle_live_campaign () =
  let tasks =
    List.init 6 (fun i ->
        { Runner.id = Fmt.str "t/%d" i; Runner.work = (fun _ -> []) })
  in
  let ids =
    Array.of_list (List.map (fun (t : Runner.task) -> t.Runner.id) tasks)
  in
  let p = Progress.create ~name:"tiny" ~ids () in
  let hub = Telemetry.create () in
  Telemetry.set_progress hub (Some p);
  let r =
    Runner.run ~workers:2 ~sleep:(fun _ -> ())
      ~registry:(Telemetry.registry hub) ~progress:p ~name:"tiny" tasks
  in
  Alcotest.(check int) "all completed" 6 r.Runner.r_completed;
  let _, _, body = Telemetry.handle hub ~meth:"GET" ~target:"/status" in
  let j =
    match Json.parse body with
    | Ok j -> j
    | Error m -> Alcotest.failf "status not JSON: %s" m
  in
  Alcotest.(check int) "shards" 6 (int_field j "shards");
  Alcotest.(check int) "completed" 6 (int_field j "completed");
  Alcotest.(check int) "sum invariant" (int_field j "shards")
    (int_field j "pending" + int_field j "running"
     + int_field j "completed" + int_field j "failed");
  Alcotest.(check bool) "live source" true
    (Json.member "source" j = Some (Json.Str "live"));
  let code, _, _ = Telemetry.handle hub ~meth:"GET" ~target:"/healthz" in
  Alcotest.(check int) "healthy after the run" 200 code;
  (* A progress plane whose width disagrees with the task list must be
     rejected up front, not half-published; so must a plane a run has
     already written, whose slots would leak into the new report. *)
  (try
     ignore
       (Runner.run ~workers:1 ~sleep:(fun _ -> ()) ~progress:p
          ~name:"short"
          [ { Runner.id = "only"; Runner.work = (fun _ -> []) } ]);
     Alcotest.fail "shard-count mismatch accepted"
   with Invalid_argument _ -> ());
  Alcotest.check_raises "a used plane is rejected"
    (Invalid_argument "Runner.run: progress plane already in use")
    (fun () ->
       ignore
         (Runner.run ~workers:1 ~sleep:(fun _ -> ()) ~progress:p
            ~name:"tiny" tasks))

(* ------------------------------------------------------------------ *)
(* Socket server end to end                                            *)

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       let req = Fmt.str "GET %s HTTP/1.1\r\n\r\n" path in
       let _ =
         Unix.write sock (Bytes.unsafe_of_string req) 0 (String.length req)
       in
       let buf = Buffer.create 1024 in
       let chunk = Bytes.create 1024 in
       let rec drain () =
         let k = Unix.read sock chunk 0 (Bytes.length chunk) in
         if k > 0 then begin
           Buffer.add_subbytes buf chunk 0 k;
           drain ()
         end
       in
       drain ();
       Buffer.contents buf)

let test_server_end_to_end () =
  let hub = Telemetry.create () in
  let port =
    match Telemetry.start ~port:0 hub with
    | Ok p -> p
    | Error m -> Alcotest.failf "start: %s" m
  in
  Alcotest.(check bool) "ephemeral port" true (port > 0);
  Alcotest.(check bool) "port observable" true
    (Telemetry.port hub = Some port);
  (match Telemetry.start ~port:0 hub with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "double start accepted");
  let r = http_get ~port "/healthz" in
  Alcotest.(check bool) "200 over the wire" true
    (Helpers.contains r "HTTP/1.1 200 OK");
  Alcotest.(check bool) "body over the wire" true (Helpers.contains r "ok");
  let r = http_get ~port "/metrics" in
  Alcotest.(check bool) "metrics over the wire" true
    (Helpers.contains r "elastic_build_info");
  let r = http_get ~port "/nope" in
  Alcotest.(check bool) "404 over the wire" true
    (Helpers.contains r "HTTP/1.1 404");
  (* Protocol garbage gets 400, not a dropped connection. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let junk = "BOGUS\r\n\r\n" in
  let _ = Unix.write sock (Bytes.unsafe_of_string junk) 0 (String.length junk) in
  let b = Bytes.create 256 in
  let k = Unix.read sock b 0 256 in
  Unix.close sock;
  Alcotest.(check bool) "400 over the wire" true
    (Helpers.contains (Bytes.sub_string b 0 (max k 0)) "HTTP/1.1 400");
  Telemetry.stop hub;
  Alcotest.(check bool) "no port after stop" true (Telemetry.port hub = None);
  (* stop is idempotent, and the port is free again. *)
  Telemetry.stop hub;
  match Telemetry.start ~port hub with
  | Ok p ->
    Alcotest.(check int) "rebind same port" port p;
    Telemetry.stop hub
  | Error m -> Alcotest.failf "rebind after stop: %s" m

(* ------------------------------------------------------------------ *)
(* Shell surface                                                       *)

let exec s line =
  match Shell.execute s line with
  | Ok out -> out
  | Error m -> Alcotest.failf "command %S failed: %s" line m

let expect_error s line =
  match Shell.execute s line with
  | Ok out -> Alcotest.failf "command %S unexpectedly succeeded: %s" line out
  | Error m -> m

let test_shell_serve () =
  let s = Shell.create () in
  let out = exec s "serve 0" in
  Alcotest.(check bool) "announces URL" true
    (Helpers.contains out "http://127.0.0.1:");
  let m = expect_error s "serve 0" in
  Alcotest.(check bool) "second serve refused" true
    (Helpers.contains m "already");
  Alcotest.(check string) "stop" "telemetry server stopped"
    (exec s "serve stop");
  let m = expect_error s "serve stop" in
  Alcotest.(check bool) "stop without server" true
    (Helpers.contains m "no telemetry server");
  let m = expect_error s "serve 70000" in
  Alcotest.(check bool) "port range checked" true
    (Helpers.contains m "0..65535")

let test_shell_campaign_serve () =
  let s = Shell.create () in
  let _ = exec s "load rs-alarmed" in
  let m =
    expect_error s "campaign flips src.out0->op_fork.in0 4 42 --serve 0"
  in
  Alcotest.(check bool) "--serve needs --par" true
    (Helpers.contains m "--par");
  let out =
    exec s "campaign flips src.out0->op_fork.in0 4 42 --par 2 --serve 0"
  in
  Alcotest.(check bool) "campaign completed" true
    (Helpers.contains out "4 completed");
  Alcotest.(check bool) "ephemeral server reported" true
    (Helpers.contains out "telemetry: served http://127.0.0.1:");
  (* With a session server up, the campaign publishes there and --serve
     is a conflict. *)
  let _ = exec s "serve 0" in
  let m =
    expect_error s "campaign flips src.out0->op_fork.in0 4 42 --par 2 \
                    --serve 0"
  in
  Alcotest.(check bool) "--serve conflicts with serve" true
    (Helpers.contains m "already");
  let out = exec s "campaign flips src.out0->op_fork.in0 4 42 --par 2" in
  Alcotest.(check bool) "campaign under session server" true
    (Helpers.contains out "4 completed");
  let _ = exec s "serve stop" in
  ()

let test_shell_runner_status_json () =
  let s = Shell.create () in
  let _ = exec s "load rs-alarmed" in
  let file = Filename.temp_file "telemetry_status" ".jsonl" in
  let _ =
    exec s
      (Fmt.str
         "campaign flips src.out0->op_fork.in0 5 42 --par 1 --checkpoint %s"
         file)
  in
  let out = exec s (Fmt.str "runner status %s --json" file) in
  Sys.remove file;
  let j =
    match Json.parse out with
    | Ok j -> j
    | Error m -> Alcotest.failf "--json output not JSON: %s" m
  in
  Alcotest.(check bool) "schema" true
    (Json.member "schema" j
     = Some (Json.Str "elastic-speculation/status/v1"));
  Alcotest.(check bool) "checkpoint source" true
    (Json.member "source" j = Some (Json.Str "checkpoint"));
  Alcotest.(check int) "all checkpointed" 5 (int_field j "completed");
  Alcotest.(check int) "sum invariant" (int_field j "shards")
    (int_field j "pending" + int_field j "running"
     + int_field j "completed" + int_field j "failed")

let suite =
  [ Alcotest.test_case "http: request parsing" `Quick test_http_parse;
    Alcotest.test_case "http: response rendering" `Quick
      test_http_response ]
  @ qcheck_http
  @ [ Alcotest.test_case "watchdog: stall, recover, episode counting"
        `Quick test_watchdog_stall_recover;
      Alcotest.test_case "watchdog: pending shards never stall" `Quick
        test_watchdog_pending_never_stalls;
      Alcotest.test_case "hub: endpoint dispatch" `Quick
        test_handle_endpoints;
      Alcotest.test_case "hub: live campaign status invariants" `Quick
        test_handle_live_campaign;
      Alcotest.test_case "server: end to end on an ephemeral port"
        `Quick test_server_end_to_end;
      Alcotest.test_case "shell: serve / serve stop" `Quick
        test_shell_serve;
      Alcotest.test_case "shell: campaign --serve" `Quick
        test_shell_campaign_serve;
      Alcotest.test_case "shell: runner status --json" `Quick
        test_shell_runner_status_json ]
