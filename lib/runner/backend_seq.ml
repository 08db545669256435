(* Sequential fallback backend (OCaml 4.14, no Domain).  Copied to
   pool_backend.ml by the dune rule; see pool_backend.mli for the
   contract.  Workers run one after another in index order, so worker 0
   drains the shared queue and the others find it empty — merged
   results are still identical because the runner merges by shard index,
   not by executing worker. *)

let parallel = false

let recommended () = 1

type lock = unit

let create_lock () = ()

let with_lock () f = f ()

let run_workers n body =
  for i = 0 to n - 1 do
    body i
  done
