(* The wide-cycles generator: a well-formed netlist, 16 channels per
   lane, every lane reproducing the §5.1 reference stream, and operand
   streams that depend on the seed alone. *)

open Elastic_kernel
open Elastic_netlist
open Elastic_sim
module Examples = Elastic_core.Examples

let check what ok =
  if not ok then begin
    Printf.eprintf "test_lanes: %s\n" what;
    exit 1
  end

let lane_of net nid =
  let name = (Netlist.node net nid).Netlist.name in
  int_of_string (String.sub name 1 (String.index name '.' - 1))

let () =
  let lanes = 6 and ops_per_lane = 120 in
  let l = Lanes.generate ~lanes ~seed:7 ~ops_per_lane in
  let net = l.Lanes.net in
  check "no structural diagnostics" (Netlist.diagnostics net = []);
  let per_lane = Array.make lanes 0 in
  List.iter
    (fun (c : Netlist.channel) ->
       let src = lane_of net c.Netlist.src.Netlist.ep_node in
       check "channel stays inside its lane" (src = lane_of net c.Netlist.dst.Netlist.ep_node);
       per_lane.(src) <- per_lane.(src) + 1)
    (Netlist.channels net);
  Array.iteri
    (fun i n -> check (Printf.sprintf "lane %d has %d channels" i n) (n = Lanes.channels_per_lane))
    per_lane;
  let eng = Engine.create net in
  Engine.run eng (3 * ops_per_lane);
  Array.iteri
    (fun i sink ->
       check
         (Printf.sprintf "lane %d reproduces its reference stream" i)
         (List.equal Value.equal
            (Transfer.values (Engine.sink_stream eng sink))
            (Examples.vl_reference l.Lanes.ops.(i))))
    l.Lanes.sinks;
  check "monitors clean" (Engine.violations eng = []);
  let again = Lanes.generate ~lanes ~seed:7 ~ops_per_lane in
  let other = Lanes.generate ~lanes ~seed:8 ~ops_per_lane in
  check "same seed, same streams" (again.Lanes.ops = l.Lanes.ops);
  check "another seed, other streams" (other.Lanes.ops <> l.Lanes.ops);
  check "lanes draw different streams" (l.Lanes.ops.(0) <> l.Lanes.ops.(1));
  check "rejects zero lanes"
    (match Lanes.generate ~lanes:0 ~seed:7 ~ops_per_lane with
     | _ -> false
     | exception Invalid_argument _ -> true)
