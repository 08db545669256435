open Elastic_kernel
open Elastic_netlist
open Elastic_sim

type kind =
  | Flip_bits of int list
  | Force_valid of bool
  | Force_stop of bool
  | Force_kill of bool
  | Duplicate_token
  | Mispredict of int

type target = Channel of Netlist.channel_id | Node of Netlist.node_id

type t = { target : target; kind : kind; cycle : int; duration : int }

let make ?(duration = 1) target kind cycle =
  if duration < 1 then invalid_arg "Fault: duration must be >= 1";
  { target; kind; cycle; duration }

let flip_bit ~channel ~cycle bit =
  make (Channel channel) (Flip_bits [ bit ]) cycle

let flip_bits ~channel ~cycle bits =
  make (Channel channel) (Flip_bits bits) cycle

let drop_token ~channel ~cycle = make (Channel channel) (Force_valid false) cycle

let duplicate_token ~channel ~cycle =
  make (Channel channel) Duplicate_token cycle

let stuck_stall ~channel ~cycle ~duration =
  make ~duration (Channel channel) (Force_stop true) cycle

let glitch_valid ~channel ~cycle level =
  make (Channel channel) (Force_valid level) cycle

let control_glitch ~channel ~cycle =
  [ stuck_stall ~channel ~cycle ~duration:1;
    drop_token ~channel ~cycle:(cycle + 1) ]

let mispredict ~node ~cycle way = make (Node node) (Mispredict way) cycle

let active f ~cycle = cycle >= f.cycle && cycle < f.cycle + f.duration

let rec value_width = function
  | Value.Unit | Value.Str _ -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 8
  | Value.Word _ -> 64
  | Value.Tuple vs -> List.fold_left (fun a v -> a + value_width v) 0 vs

let flip_value bits v =
  let rec go off v =
    match v with
    | Value.Unit | Value.Str _ -> (v, off)
    | Value.Bool b ->
      let v' = if List.mem off bits then Value.Bool (not b) else v in
      (v', off + 1)
    | Value.Int n ->
      let n' =
        List.fold_left
          (fun n b ->
             if b >= off && b < off + 8 then n lxor (1 lsl (b - off))
             else n)
          n bits
      in
      (Value.Int n', off + 8)
    | Value.Word w ->
      let w' =
        List.fold_left
          (fun w b ->
             if b >= off && b < off + 64 then
               Int64.logxor w (Int64.shift_left 1L (b - off))
             else w)
          w bits
      in
      (Value.Word w', off + 64)
    | Value.Tuple vs ->
      let off, rev =
        List.fold_left
          (fun (off, acc) v ->
             let v', off' = go off v in
             (off', v' :: acc))
          (off, []) vs
      in
      (Value.Tuple (List.rev rev), off)
  in
  fst (go 0 v)

(* Plain concatenation: a campaign describes every fault it checks, and
   [Fmt.str] costs a formatter per call. *)
let describe net f =
  let int = string_of_int in
  let where =
    match f.target with
    | Channel cid ->
      let c = Netlist.channel net cid in
      String.concat ""
        [ "channel "; c.Netlist.ch_name; " (id "; int c.Netlist.ch_id;
          ", node "; int c.Netlist.src.Netlist.ep_node; " -> node ";
          int c.Netlist.dst.Netlist.ep_node; ")" ]
    | Node nid ->
      let n = Netlist.node net nid in
      String.concat "" [ "node "; n.Netlist.name; " (id "; int nid; ")" ]
  in
  let what =
    match f.kind with
    | Flip_bits [ b ] -> "flip payload bit " ^ int b
    | Flip_bits bs ->
      "flip payload bits {" ^ String.concat "," (List.map int bs) ^ "}"
    | Force_valid true -> "forge valid (V+ stuck high)"
    | Force_valid false -> "drop token (V+ stuck low)"
    | Force_stop true -> "stuck-at stall (S+ high)"
    | Force_stop false -> "suppress stall (S+ low)"
    | Force_kill true -> "forge anti-token (V- stuck high)"
    | Force_kill false -> "suppress anti-token (V- stuck low)"
    | Duplicate_token -> "duplicate last token"
    | Mispredict way -> "force scheduler to way " ^ int way
  in
  let window =
    if f.duration = 1 then "at cycle " ^ int f.cycle
    else
      String.concat ""
        [ "during cycles "; int f.cycle; ".."; int (f.cycle + f.duration - 1) ]
  in
  String.concat " " [ what; "on"; where; window ]

type plan = {
  p_faults : t list;
  last_data : (Netlist.channel_id, Value.t) Hashtbl.t;
  dup_channels : Netlist.channel_id list;
}

let plan _net faults =
  let dup_channels =
    List.filter_map
      (fun f ->
         match (f.target, f.kind) with
         | Channel cid, Duplicate_token -> Some cid
         | _ -> None)
      faults
    |> List.sort_uniq compare
  in
  { p_faults = faults; last_data = Hashtbl.create 4; dup_channels }

let faults p = p.p_faults

let horizon p =
  List.fold_left (fun a f -> max a (f.cycle + f.duration)) 0 p.p_faults

let merge_override p cid ov f =
  match f.kind with
  | Flip_bits bits ->
    let flip = flip_value bits in
    let map_data =
      match ov.Wires.map_data with
      | None -> Some flip
      | Some g -> Some (fun v -> flip (g v))
    in
    { ov with Wires.map_data }
  | Force_valid b -> { ov with Wires.force_v_plus = Some b }
  | Force_stop b -> { ov with Wires.force_s_plus = Some b }
  | Force_kill b -> { ov with Wires.force_v_minus = Some b }
  | Duplicate_token ->
    let subst =
      match Hashtbl.find_opt p.last_data cid with
      | Some v -> v
      | None -> Value.Int 0
    in
    { ov with Wires.force_v_plus = Some true; subst_data = Some subst }
  | Mispredict _ -> ov

let injector p : Engine.injector =
 fun ~cycle cid ->
  let applicable =
    List.filter
      (fun f ->
         match f.target with
         | Channel c -> c = cid && active f ~cycle
         | Node _ -> false)
      p.p_faults
  in
  match applicable with
  | [] -> None
  | fs ->
    Some (List.fold_left (fun ov f -> merge_override p cid ov f)
            Wires.no_override fs)

let choices p ~cycle nid =
  List.find_map
    (fun f ->
       match (f.target, f.kind) with
       | Node n, Mispredict way when n = nid && active f ~cycle ->
         Some (Instance.Predict way)
       | _ -> None)
    p.p_faults

let observe p eng =
  List.iter
    (fun cid ->
       match (Engine.signal eng cid).Signal.data with
       | Some v -> Hashtbl.replace p.last_data cid v
       | None -> ())
    p.dup_channels
