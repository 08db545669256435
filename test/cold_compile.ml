(* Engines compiled on four workers at once, from a cold cache of
   controller programs, get the sweeps a sequential compile gets, so the
   process-wide cache ([Control.memo]) survives racing inserts.  The test
   has an executable of its own, so no earlier test has filled the
   cache.  On OCaml 4.14 the workers run one after another. *)

open Elastic_sim
open Elastic_core

let compile_all () =
  let nets = List.map (fun (name, mk) -> (name, mk ())) Shell.designs in
  let sweeps () =
    List.map
      (fun (name, net) ->
         ( name,
           Engine.sweep (Engine.create net),
           Engine.sweep (Engine.create ~mode:Engine.Reference net) ))
      nets
  in
  let workers = Array.make 4 (Error "did not run") in
  Elastic_runner.Pool_backend.run_workers 4 (fun w ->
      workers.(w) <-
        (try Ok (sweeps ()) with e -> Error (Printexc.to_string e)));
  let sequential = sweeps () in
  Array.iteri
    (fun w got ->
       match got with
       | Error e -> Alcotest.failf "worker %d raised %s" w e
       | Ok got ->
         List.iter2
           (fun (name, arena, reference) (_, arena', reference') ->
              Alcotest.(check (array int))
                (Fmt.str "worker %d: %s arena sweep" w name) arena' arena;
              Alcotest.(check (array int))
                (Fmt.str "worker %d: %s reference sweep" w name) reference'
                reference)
           got sequential)
    workers

let () =
  Alcotest.run "cold-compile"
    [ ( "compile.concurrent",
        [ Alcotest.test_case "four workers from a cold cache get one sweep"
            `Quick compile_all ] ) ]
