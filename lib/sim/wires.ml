open Elastic_kernel

type override = {
  force_v_plus : bool option;
  force_s_plus : bool option;
  force_v_minus : bool option;
  map_data : (Value.t -> Value.t) option;
  subst_data : Value.t option;
}

let no_override =
  { force_v_plus = None; force_s_plus = None; force_v_minus = None;
    map_data = None; subst_data = None }

exception Conflict of { wire : int; field : string }

type wire = {
  mutable v_plus : bool option;
  mutable s_plus : bool option;
  mutable v_minus : bool option;
  mutable s_minus : bool option;
  mutable data : Value.t option;
  mutable ov : override;
  id : int;
}

type t = {
  wires : wire array;
  mutable progress : bool;
  mutable written : int list;  (* wires written since [clear_progress] *)
}

let create n =
  { wires =
      Array.init n (fun id ->
          { v_plus = None; s_plus = None; v_minus = None; s_minus = None;
            data = None; ov = no_override; id });
    progress = false;
    written = [] }

let wire t i = t.wires.(i)

let reset t =
  Array.iter
    (fun w ->
       w.v_plus <- None;
       w.s_plus <- None;
       w.v_minus <- None;
       w.s_minus <- None;
       w.data <- None)
    t.wires;
  t.progress <- false;
  t.written <- []

let progress t = t.progress

let clear_progress t =
  t.progress <- false;
  t.written <- []

let written t = t.written

let unknown_count t =
  Array.fold_left
    (fun acc w ->
       let u o = if o = None then 1 else 0 in
       acc + u w.v_plus + u w.s_plus + u w.v_minus + u w.s_minus)
    0 t.wires

(* Forced bits are seeded into the wire at install time so that readers see
   them before (and regardless of) the driving node's write; the matching
   [set_*] call is then reconciled against the forced value instead of
   raising a conflict. *)
let set_override t i ov =
  let w = t.wires.(i) in
  w.ov <- ov;
  let seed get set = function
    | None -> ()
    | Some b -> if get w = None then set w (Some b)
  in
  seed (fun w -> w.v_plus) (fun w v -> w.v_plus <- v) ov.force_v_plus;
  seed (fun w -> w.s_plus) (fun w v -> w.s_plus <- v) ov.force_s_plus;
  seed (fun w -> w.v_minus) (fun w v -> w.v_minus <- v) ov.force_v_minus

let clear_overrides t =
  Array.iter (fun w -> w.ov <- no_override) t.wires

let v_plus w = w.v_plus

let s_plus w = w.s_plus

let v_minus w = w.v_minus

let s_minus w = w.s_minus

let data w =
  match w.data with
  | Some _ as d -> d
  | None ->
    (* A forced-valid wire with no driven data yields the substitute
       payload (token duplication / forgery faults). *)
    if w.ov.force_v_plus = Some true then w.ov.subst_data else None

let has_data w = match data w with Some _ -> true | None -> false

let payload w =
  match data w with
  | Some v -> v
  | None -> invalid_arg "Wires.payload: no payload"

let set_bit t w field_name force get set b =
  let b = Option.value force ~default:b in
  match get w with
  | None ->
    set w (Some b);
    t.progress <- true;
    t.written <- w.id :: t.written
  | Some b' ->
    if b' <> b then raise (Conflict { wire = w.id; field = field_name })

let set_v_plus t w b =
  set_bit t w "V+" w.ov.force_v_plus
    (fun w -> w.v_plus) (fun w v -> w.v_plus <- v) b

let set_s_plus t w b =
  set_bit t w "S+" w.ov.force_s_plus
    (fun w -> w.s_plus) (fun w v -> w.s_plus <- v) b

let set_v_minus t w b =
  set_bit t w "V-" w.ov.force_v_minus
    (fun w -> w.v_minus) (fun w v -> w.v_minus <- v) b

let set_s_minus t w b =
  set_bit t w "S-" None
    (fun w -> w.s_minus) (fun w v -> w.s_minus <- v) b

let set_data t w v =
  let v = match w.ov.map_data with None -> v | Some f -> f v in
  match w.data with
  | None ->
    w.data <- Some v;
    t.progress <- true;
    t.written <- w.id :: t.written
  | Some v' ->
    if not (Value.equal v v') then
      raise (Conflict { wire = w.id; field = "data" })

let code w =
  let bit o b = if o = Some true then b else 0 in
  bit w.v_plus Signal.v_plus_bit
  lor bit w.s_plus Signal.s_plus_bit
  lor bit w.v_minus Signal.v_minus_bit
  lor bit w.s_minus Signal.s_minus_bit
