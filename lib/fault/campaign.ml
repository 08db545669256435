open Elastic_netlist
open Elastic_sim

type outcome = { faults : Fault.t list; report : Recovery.report }

type summary = {
  total : int;
  histogram : (string * int) list;
  outcomes : outcome list;
}

let all_benign ?(max_penalty = 1) s =
  List.for_all
    (fun o ->
       match o.report.Recovery.classification with
       | Recovery.Masked -> true
       | Recovery.Corrected p -> p <= max_penalty
       | _ -> false)
    s.outcomes

let count s label =
  match List.assoc_opt label s.histogram with Some n -> n | None -> 0

let pp_summary ppf s =
  Fmt.pf ppf "@[<v>%d fault scenario%s:@,%a@]" s.total
    (if s.total = 1 then "" else "s")
    Fmt.(
      list ~sep:cut (fun ppf (label, n) ->
          pf ppf "  %-18s %d" label n))
    s.histogram

let summarize outcomes =
  let histogram =
    List.fold_left
      (fun acc o ->
         let l =
           Recovery.classification_label o.report.Recovery.classification
         in
         let n = match List.assoc_opt l acc with Some n -> n | None -> 0 in
         (l, n + 1) :: List.remove_assoc l acc)
      [] outcomes
    |> List.sort compare
  in
  { total = List.length outcomes; histogram; outcomes }

let run ?cycles ?settle ?alarms net ~scenarios =
  let check =
    lazy
      (let golden = Recovery.golden_run ?cycles ?settle ?alarms net in
       Recovery.check ~engine:(Recovery.faulted_engine golden) golden)
  in
  summarize
    (List.map
       (fun faults -> { faults; report = Lazy.force check ~faults })
       scenarios)

(* Explicit recursion: the draw order must be deterministic (List.init
   does not specify its evaluation order). *)
let generate count f =
  let rec go i acc = if i = count then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let draw_cycle rng ~from_cycle ~to_cycle =
  if to_cycle <= from_cycle then invalid_arg "Campaign: empty cycle window";
  from_cycle + Rng.int rng (to_cycle - from_cycle)

let bit_range net ~channel ~bit_lo ~bit_hi =
  let c = Netlist.channel net channel in
  let hi = match bit_hi with Some h -> h | None -> c.Netlist.width in
  if hi <= bit_lo then invalid_arg "Campaign: empty bit range";
  (bit_lo, hi)

let random_bitflips ~net ~channel ~seed ~count ~from_cycle ~to_cycle
    ?(bit_lo = 0) ?bit_hi () =
  let lo, hi = bit_range net ~channel ~bit_lo ~bit_hi in
  let rng = Rng.create ~seed in
  generate count (fun _ ->
      let cycle = draw_cycle rng ~from_cycle ~to_cycle in
      let bit = lo + Rng.int rng (hi - lo) in
      [ Fault.flip_bit ~channel ~cycle bit ])

let random_double_flips ~net ~channel ~seed ~count ~from_cycle ~to_cycle
    ?(bit_lo = 0) ?bit_hi () =
  let lo, hi = bit_range net ~channel ~bit_lo ~bit_hi in
  if hi - lo < 2 then invalid_arg "Campaign: bit range too narrow";
  let rng = Rng.create ~seed in
  generate count (fun _ ->
      let cycle = draw_cycle rng ~from_cycle ~to_cycle in
      let b1 = lo + Rng.int rng (hi - lo) in
      let rec distinct () =
        let b = lo + Rng.int rng (hi - lo) in
        if b = b1 then distinct () else b
      in
      let b2 = distinct () in
      [ Fault.flip_bits ~channel ~cycle [ b1; b2 ] ])

let random_storm ~net ~seed ~count ~from_cycle ~to_cycle =
  let data_chans =
    List.filter
      (fun (c : Netlist.channel) -> c.Netlist.width > 0)
      (Netlist.channels net)
    |> Array.of_list
  in
  if Array.length data_chans = 0 then
    invalid_arg "Campaign: netlist has no data channels";
  let rng = Rng.create ~seed in
  generate count (fun _ ->
      let c = data_chans.(Rng.int rng (Array.length data_chans)) in
      let cycle = draw_cycle rng ~from_cycle ~to_cycle in
      let bit = Rng.int rng (max 1 c.Netlist.width) in
      [ Fault.flip_bit ~channel:c.Netlist.ch_id ~cycle bit ])
