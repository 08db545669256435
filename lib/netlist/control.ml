(* Each controller is written once here, as an equation table over named
   nets.  The emission order of inputs, registers and assignments is part
   of the contract: the BLIF printer numbers its intermediate gates in
   this order.  [program] resolves each table's nets once per process,
   so no other module names a net. *)

type 'n expr =
  | T
  | F
  | Var of 'n
  | Not of 'n expr
  | And of 'n expr list
  | Or of 'n expr list
  | Is of 'n * int

type e = string expr

type 'n input = Bit of 'n | Choice of 'n * int

type 'n reg = { d : 'n; q : 'n; init : bool }

type 'n table = {
  inputs : 'n input list;
  assigns : ('n * 'n expr) list;
  regs : 'n reg list;
}

type shape =
  | Source
  | Sink
  | Eb of int
  | Eb0 of bool
  | Join of int
  | Fork of int
  | Mux of { ways : int; early : bool }
  | Shared of { ways : int; hinted : bool }
  | Varlat

let shape (k : Netlist.kind) =
  match k with
  | Netlist.Source _ -> Source
  | Netlist.Sink _ -> Sink
  | Netlist.Buffer { buffer = Netlist.Eb; init } -> Eb (List.length init)
  | Netlist.Buffer { buffer = Netlist.Eb0; init } -> Eb0 (init <> [])
  | Netlist.Func f -> Join f.Func.arity
  | Netlist.Fork k -> Fork k
  | Netlist.Mux { ways; early } -> Mux { ways; early }
  | Netlist.Shared { ways; hinted; _ } -> Shared { ways; hinted }
  | Netlist.Varlat _ -> Varlat

(* Boundary events of a channel [c : field -> net], cancellation built
   in. *)
let token_in c = And [ Var (c "vp"); Not (Var (c "sp")); Not (Var (c "vm")) ]
let token_out c = And [ Var (c "vp"); Or [ Not (Var (c "sp")); Var (c "vm") ] ]
let anti_in c = And [ Var (c "vm"); Not (Var (c "sm")); Not (Var (c "vp")) ]
let anti_out c = And [ Var (c "vm"); Or [ Var (c "vp"); Not (Var (c "sm")) ] ]

(* The name [a_x<k>]; a format would build a formatter per name. *)
let indexed a x k = a ^ x ^ string_of_int k

type acc = {
  mutable ins : string input list;  (* reversed *)
  mutable asg : (string * e) list;  (* reversed *)
  mutable rgs : string reg list;  (* reversed *)
}

let assign a net e = a.asg <- (net, e) :: a.asg

let reg a ~d ~q ~init = a.rgs <- { d; q; init } :: a.rgs

(* A one-hot register bank of [n] states starting in [init]; state [k]
   is loaded from the net [name_d<k>]. *)
let one_hot a ~name ~n ~init =
  Array.init n (fun k ->
      let q = indexed name "_s" k in
      reg a ~d:(indexed name "_d" k) ~q ~init:(k = init);
      Var q)

(* Next state of a one-hot counter moving at most one step per cycle. *)
let count a ~name st ~up ~down =
  let n = Array.length st in
  let hold = And [ Not up; Not down ] in
  Array.iteri
    (fun k s ->
       assign a (indexed name "_d" k)
         (Or
            ((And [ s; hold ]
              :: (if k > 0 then [ And [ st.(k - 1); up ] ] else []))
             @ if k < n - 1 then [ And [ st.(k + 1); down ] ] else [])))
    st

(* Lazy join of [ins] into [o]: anti-tokens at the output fork backwards
   all-or-nothing. *)
let join a ins o =
  assign a (o "vp") (And (List.map (fun c -> Var (c "vp")) ins));
  let s_eff = And [ Var (o "sp"); Not (Var (o "vm")) ] in
  List.iteri
    (fun k c ->
       let others =
         List.filteri (fun j _ -> j <> k) ins
         |> List.map (fun c' -> Var (c' "vp"))
       in
       assign a (c "sp") (Not (And (others @ [ Not s_eff ]))))
    ins;
  let consumable =
    And (List.map (fun c -> Or [ Var (c "vp"); Not (Var (c "sm")) ]) ins)
  in
  let kill = And [ Var (o "vm"); Not (Var (o "vp")); consumable ] in
  List.iter (fun c -> assign a (c "vm") kill) ins;
  assign a (o "sm") (And [ Not (Var (o "vp")); Not consumable ])

let build a ~u ~wire shape =
  let input i = a.ins <- i :: a.ins in
  match shape with
  | Source ->
    let o = wire (Netlist.Out 0) in
    let offer = "offer_" ^ u and retry = "retry_" ^ u in
    input (Bit offer);
    reg a ~d:(retry ^ "_d") ~q:retry ~init:false;
    assign a (o "vp") (Or [ Var offer; Var retry ]);
    assign a (retry ^ "_d") (And [ Var (o "vp"); Not (token_out o) ]);
    assign a (o "sm") F
  | Sink ->
    let i = wire (Netlist.In 0) in
    let stall = "stall_" ^ u in
    input (Bit stall);
    assign a (i "sp") (Var stall);
    assign a (i "vm") F
  | Eb tokens ->
    let i = wire (Netlist.In 0) and o = wire (Netlist.Out 0) in
    (* Occupancy -2..2 as states 0..4; empty = 2. *)
    let st = one_hot a ~name:u ~n:5 ~init:(2 + tokens) in
    assign a (i "sp") st.(4);
    assign a (i "vm") (Or [ st.(0); st.(1) ]);
    assign a (o "vp") (Or [ st.(3); st.(4) ]);
    assign a (o "sm") st.(0);
    (* At most one event per boundary per cycle: delta in {-1,0,+1}. *)
    let inc = u ^ "_inc" and dec = u ^ "_dec" in
    let gain = Or [ token_in i; anti_out i ] in
    let lose = Or [ token_out o; anti_in o ] in
    assign a inc (And [ gain; Not lose ]);
    assign a dec (And [ lose; Not gain ]);
    count a ~name:u st ~up:(Var inc) ~down:(Var dec)
  | Eb0 full0 ->
    let i = wire (Netlist.In 0) and o = wire (Netlist.Out 0) in
    let full = "full_" ^ u in
    reg a ~d:(full ^ "_d") ~q:full ~init:full0;
    assign a (o "vp") (Var full);
    let leaving = And [ Var full; Or [ Not (Var (o "sp")); Var (o "vm") ] ] in
    assign a (i "sp") (And [ Var full; Not leaving ]);
    assign a (i "vm") (And [ Not (Var full); Var (o "vm") ]);
    assign a (o "sm") (And [ Not (Var full); Var (i "sm") ]);
    assign a (full ^ "_d") (Or [ token_in i; And [ Var full; Not leaving ] ])
  | Join arity ->
    join a
      (List.init arity (fun k -> wire (Netlist.In k)))
      (wire (Netlist.Out 0))
  | Fork k ->
    let i = wire (Netlist.In 0) in
    let done_ j = indexed u "_done" j in
    let pend j = indexed u "_pend" j in
    let tout j = indexed u "_tout" j in
    let compl j = indexed u "_compl" j in
    for j = 0 to k - 1 do
      let o = wire (Netlist.Out j) in
      let dn = Var (done_ j) and tj = Var (tout j) in
      (* done: set on branch transfer, cleared when the token leaves;
         pend: anti-tokens 0..2 awaiting the next input token. *)
      reg a ~d:(done_ j ^ "_d") ~q:(done_ j) ~init:false;
      let st = one_hot a ~name:(pend j) ~n:3 ~init:0 in
      let has_pend = Or [ st.(1); st.(2) ] in
      assign a (pend j ^ "_any") has_pend;
      assign a (o "vp") (And [ Var (i "vp"); And [ Not dn; st.(0) ] ]);
      assign a (o "sm") st.(2);
      assign a (tout j) (token_out o);
      assign a (compl j) (Or [ dn; has_pend; tj ]);
      assign a (done_ j ^ "_d") (And [ Not (token_in i); Or [ dn; tj ] ]);
      let consume = Or [ And [ token_in i; Not dn; Not tj ]; anti_out i ] in
      count a ~name:(pend j) st
        ~up:(And [ anti_in o; Not consume ])
        ~down:(And [ consume; Not (anti_in o) ])
    done;
    let all f = List.init k f in
    assign a (i "sp") (Not (And (all (fun j -> Var (compl j)))));
    assign a (i "vm")
      (And (Not (Var (i "vp")) :: all (fun j -> Var (pend j ^ "_any"))))
  | Mux { ways; early } ->
    let selc = wire Netlist.Sel and o = wire (Netlist.Out 0) in
    let ins = List.init ways (fun j -> wire (Netlist.In j)) in
    let selv = "selval_" ^ u in
    input (Choice (selv, ways));
    if not early then join a (selc :: ins) o
    else begin
      (* Anti-token queues 0..2 per input. *)
      let qname j = indexed u "_q" j in
      let qs =
        List.mapi (fun j _ -> one_hot a ~name:(qname j) ~n:3 ~init:0) ins
      in
      let sel_is j = Is (selv, j) in
      let sel_not j =
        match List.filter (fun k -> k <> j) (List.init ways Fun.id) with
        | [ k ] -> sel_is k
        | ks -> Or (List.map sel_is ks)
      in
      assign a (o "vp")
        (And
           [ Var (selc "vp");
             Or
               (List.mapi
                  (fun j d -> And [ sel_is j; (List.nth qs j).(0); Var (d "vp") ])
                  ins) ]);
      let fire = Var (u ^ "_fire") in
      assign a (u ^ "_fire") (token_out o);
      assign a (selc "sp") (Not fire);
      assign a (selc "vm") F;
      assign a (o "sm") (Not (Var (o "vp")));
      List.iteri
        (fun j d ->
           let q = List.nth qs j in
           let has_q = Or [ q.(1); q.(2) ] in
           let fresh_kill = And [ fire; sel_not j ] in
           assign a (d "vm") (Or [ has_q; fresh_kill ]);
           (* stop unless selected-and-firing or killing *)
           assign a (d "sp")
             (Not
                (Or
                   [ has_q; fresh_kill; And [ Var (selc "vp"); sel_is j; fire ] ]));
           count a ~name:(qname j) q
             ~up:(And [ fresh_kill; Not (anti_out d) ])
             ~down:(And [ anti_out d; Not fresh_kill ]))
        ins
    end
  | Shared { ways; hinted } ->
    let pred = "pred_" ^ u in
    input (Choice (pred, ways));
    (* A hinted module joins channel 0 with its hint stream. *)
    let hint = if hinted then Some (wire Netlist.Sel) else None in
    let fire j = indexed u "_fire" j in
    for j = 0 to ways - 1 do
      let i = wire (Netlist.In j) and o = wire (Netlist.Out j) in
      let granted = Is (pred, j) in
      let gate =
        match hint with
        | Some h when j = 0 -> [ Var (h "vp") ]
        | Some _ | None -> []
      in
      assign a (o "vp") (And ([ granted; Var (i "vp") ] @ gate));
      assign a (fire j) (token_out o);
      assign a (i "sp")
        (Or
           [ And [ granted; Not (Var (fire j)) ];
             And [ Not granted; Not (Var (o "vm")) ] ]);
      assign a (i "vm")
        (Or
           [ And [ granted; Var (o "vm"); Not (Var (o "vp")) ];
             And [ Not granted; Var (o "vm") ] ]);
      assign a (o "sm")
        (And [ Not (Var (o "vp")); Var (i "sm"); Not (Var (i "vp")) ])
    done;
    Option.iter
      (fun h ->
         assign a (h "sp") (Not (And [ Is (pred, 0); Var (fire 0) ]));
         assign a (h "vm") F)
      hint
  | Varlat ->
    let i = wire (Netlist.In 0) and o = wire (Netlist.Out 0) in
    (* States: 0 empty, 1 ready, 2 computing slow. *)
    let st = one_hot a ~name:u ~n:3 ~init:0 in
    let slow = Var ("slowpick_" ^ u) in
    input (Bit ("slowpick_" ^ u));
    assign a (o "vp") st.(1);
    let leaving = And [ st.(1); Not (Var (o "sp")) ] in
    assign a (i "sp") (Or [ st.(2); And [ st.(1); Var (o "sp") ] ]);
    assign a (i "vm") F;
    assign a (o "sm") (Not st.(1));
    let tin = token_in i in
    let next k = assign a (indexed u "_d" k) in
    next 0 (Or [ And [ st.(0); Not tin ]; And [ leaving; Not tin ] ]);
    next 1 (Or [ And [ tin; Not slow ]; st.(2); And [ st.(1); Not leaving ] ]);
    next 2 (And [ tin; slow ])

let table ~u ~wire shape =
  let a = { ins = []; asg = []; rgs = [] } in
  build a ~u ~wire shape;
  { inputs = List.rev a.ins; assigns = List.rev a.asg; regs = List.rev a.rgs }

let rec map_expr f = function
  | T -> T
  | F -> F
  | Var x -> Var (f x)
  | Not e -> Not (map_expr f e)
  | And es -> And (List.map (map_expr f) es)
  | Or es -> Or (List.map (map_expr f) es)
  | Is (x, j) -> Is (f x, j)

let map f t =
  let input = function Bit x -> Bit (f x) | Choice (x, n) -> Choice (f x, n) in
  { inputs = List.map input t.inputs;
    assigns = List.map (fun (x, e) -> (f x, map_expr f e)) t.assigns;
    regs = List.map (fun r -> { r with d = f r.d; q = f r.q }) t.regs }

type net = Chan of Netlist.port * int | Slot of int

type program = {
  resolved : net table;
  slots : int;
  live : (net * net expr) list;
}

let fields =
  Elastic_kernel.Signal.
    [ ("vp", v_plus_bit); ("sp", s_plus_bit); ("vm", v_minus_bit);
      ("sm", s_minus_bit) ]

(* The table of [s] with its nets resolved.  Each use of a channel bit
   gets a fresh name, "#<k>", which no internal net (all named after
   [u]) takes. *)
let resolve s =
  let nets = Hashtbl.create 64 and n = ref 0 in
  let wire p f =
    let x = "#" ^ string_of_int (Hashtbl.length nets) in
    Hashtbl.replace nets x (Chan (p, List.assoc f fields));
    x
  in
  let t = table ~u:"u" ~wire s in
  let slot x =
    if not (Hashtbl.mem nets x) then (Hashtbl.replace nets x (Slot !n); incr n)
  in
  List.iter (fun r -> slot r.q) t.regs;
  List.iter (fun (Bit x | Choice (x, _)) -> slot x) t.inputs;
  List.iter (fun (x, _) -> slot x) t.assigns;
  let resolved = map (Hashtbl.find nets) t in
  (* Every internal net is assigned before it is read, so one backward
     pass finds those the channel bits need. *)
  let need = Array.make !n false in
  let rec mark = function
    | Var (Slot k) | Is (Slot k, _) -> need.(k) <- true
    | Not e -> mark e
    | And es | Or es -> List.iter mark es
    | T | F | Var (Chan _) | Is (Chan _, _) -> ()
  in
  let live =
    List.fold_right
      (fun ((x, e) as a) acc ->
         match x with
         | Slot k when not need.(k) -> acc
         | Slot _ | Chan _ -> mark e; a :: acc)
      resolved.assigns []
  in
  { resolved; slots = !n; live }

module Shapes = Map.Make (struct type t = shape let compare = compare end)

(* The map is immutable, so domains share it; a racing insert retries. *)
let memo f =
  let cache = Atomic.make Shapes.empty in
  let rec get s =
    let m = Atomic.get cache in
    match Shapes.find_opt s m with
    | Some x -> x
    | None ->
      ignore (Atomic.compare_and_set cache m (Shapes.add s (f s) m));
      get s
  in
  get

let program = memo resolve

let sanitize name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
       | _ -> '_')
    name

let bit field (c : Netlist.channel) = indexed field "_" c.Netlist.ch_id

let node net (n : Netlist.node) =
  let wire port field =
    match Netlist.channel_at net n.Netlist.id port with
    | Some c -> bit field c
    | None -> invalid_arg "Control.node: missing channel"
  in
  table ~u:(sanitize n.Netlist.name) ~wire (shape n.Netlist.kind)
