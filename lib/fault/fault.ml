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

let rec value_width = function
  | Value.Unit | Value.Str _ -> 0
  | Value.Bool _ -> 1
  | Value.Int _ -> 8
  | Value.Word _ -> 64
  | Value.Tuple vs -> List.fold_left (fun a v -> a + value_width v) 0 vs

(* [x] with [flip x k] applied for each of [bits] at [off + k], [k] in
   [\[0, width)]: once per occurrence, so a bit listed twice stays. *)
let rec toggle flip off width x = function
  | [] -> x
  | b :: bits ->
    toggle flip off width
      (if b >= off && b < off + width then flip x (b - off) else x)
      bits

(* A flip runs on every faulted token, so it rebuilds only the tuples:
   a scalar no bit reaches is returned as it is. *)
let flip_value bits v =
  let rec go off v =
    match v with
    | Value.Unit | Value.Str _ -> v
    | Value.Bool b -> if List.mem off bits then Value.Bool (not b) else v
    | Value.Int n ->
      let n' = toggle (fun n k -> n lxor (1 lsl k)) off 8 n bits in
      if n' = n then v else Value.Int n'
    | Value.Word w ->
      let w' =
        toggle (fun w k -> Int64.logxor w (Int64.shift_left 1L k)) off 64 w bits
      in
      if Int64.equal w' w then v else Value.Word w'
    | Value.Tuple vs -> Value.Tuple (go_list off vs)
  and go_list off = function
    | [] -> []
    | v :: vs ->
      let v' = go off v in
      v' :: go_list (off + value_width v) vs
  in
  go 0 v

(* Plain concatenation: a campaign describes every fault it checks, and
   [Fmt.str] costs a formatter per call.  An id the netlist does not
   have is named as such. *)
let describe net f =
  let int = string_of_int in
  let where =
    match f.target with
    | Channel cid -> (
        match Netlist.channel net cid with
        | c ->
          String.concat ""
            [ "channel "; c.Netlist.ch_name; " (id "; int c.Netlist.ch_id;
              ", node "; int c.Netlist.src.Netlist.ep_node; " -> node ";
              int c.Netlist.dst.Netlist.ep_node; ")" ]
        | exception Invalid_argument _ -> "channel id " ^ int cid)
    | Node nid -> (
        match Netlist.node net nid with
        | n ->
          String.concat "" [ "node "; n.Netlist.name; " (id "; int nid; ")" ]
        | exception Invalid_argument _ -> "node id " ^ int nid)
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

type plan = Engine.fault_schedule

let known lookup net id =
  match lookup net id with
  | _ -> true
  | exception Invalid_argument _ -> false

let refuse net f why =
  invalid_arg (String.concat "" [ "Fault.plan: "; describe net f; ": "; why ])

(* Refuse a fault that cannot act, naming it. *)
let validate net f =
  match (f.target, f.kind) with
  | Channel cid, _ when not (known Netlist.channel net cid) ->
    refuse net f "the netlist has no such channel"
  | Node nid, _ when not (known Netlist.node net nid) ->
    refuse net f "the netlist has no such node"
  | Channel _, Mispredict _ -> refuse net f "a scheduler fault needs a node"
  | Node _, (Flip_bits _ | Force_valid _ | Force_stop _ | Force_kill _
            | Duplicate_token) ->
    refuse net f "a wire fault needs a channel"
  | Node nid, Mispredict way -> (
      match (Netlist.node net nid).Netlist.kind with
      | Netlist.Shared { ways; _ } when way >= 0 && way < ways -> ()
      | Netlist.Shared { ways; _ } ->
        refuse net f ("the module has ways 0.." ^ string_of_int (ways - 1))
      | _ -> refuse net f "the node is not a shared module")
  | Channel _, _ -> ()

let active f c = c >= f.cycle && c < f.cycle + f.duration

(* Faults on one channel and cycle merge in list order. *)
let merge_override ov f =
  match f.kind with
  | Flip_bits bits ->
    let flip = flip_value bits in
    let map_data =
      match ov.Instance.map_data with
      | None -> Some flip
      | Some g -> Some (fun v -> flip (g v))
    in
    { ov with Instance.map_data }
  | Force_valid b -> { ov with Instance.force_v_plus = Some b }
  | Force_stop b -> { ov with Instance.force_s_plus = Some b }
  | Force_kill b -> { ov with Instance.force_v_minus = Some b }
  | Duplicate_token -> { ov with Instance.force_v_plus = Some true }
  | Mispredict _ -> ov

let no_faults = { Engine.fr_wires = [||]; fr_predict = [] }

(* Cycle [c]'s row: the active channel faults grouped by channel in
   channel-id order (the engine's), and the active mispredictions. *)
let row faults c =
  match List.filter (fun f -> active f c) faults with
  | [] -> no_faults
  | now ->
    let chans =
      match
        List.filter_map
          (fun f -> match f.target with Channel c -> Some c | Node _ -> None)
          now
      with
      | ([] | [ _ ]) as one -> one  (* [sort_uniq] allocates closures *)
      | cids -> List.sort_uniq Int.compare cids
    in
    let wire cid =
      let on =
        List.filter
          (fun f -> match f.target with Channel c -> c = cid | Node _ -> false)
          now
      in
      { Engine.fw_chan = cid;
        fw_override = List.fold_left merge_override Instance.no_override on;
        fw_replay = List.exists (fun f -> f.kind = Duplicate_token) on }
    in
    { Engine.fr_wires = Array.of_list (List.map wire chans);
      fr_predict =
        List.filter_map
          (fun f ->
             match (f.target, f.kind) with
             | Node nid, Mispredict way -> Some (nid, way)
             | _ -> None)
          now }

let plan net faults =
  List.iter (validate net) faults;
  match faults with
  | [] -> { Engine.fs_first = 0; fs_rows = [||] }
  | f :: rest ->
    let first = List.fold_left (fun a f -> min a f.cycle) f.cycle rest in
    let last =
      List.fold_left (fun a f -> max a (f.cycle + f.duration)) 0 faults
    in
    { Engine.fs_first = first;
      fs_rows = Array.init (last - first) (fun r -> row faults (first + r)) }

let horizon (p : plan) = p.Engine.fs_first + Array.length p.Engine.fs_rows
