open Elastic_kernel
open Elastic_netlist

type op = Add | Sub | And | Or | Xor

let op_of_int = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> And
  | 3 -> Or
  | 4 -> Xor
  | n -> invalid_arg (Fmt.str "Alu.op_of_int: %d" n)

let int_of_op = function Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4

let mask8 x = x land 0xFF

let exact op a b =
  match op with
  | Add -> mask8 (a + b)
  | Sub -> mask8 (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b

(* Cut the carry/borrow chain at the nibble boundary: the high nibble is
   computed assuming no carry in. *)
let approx op a b =
  match op with
  | Add ->
    let low = ((a land 0xF) + (b land 0xF)) land 0xF in
    let high = (((a lsr 4) + (b lsr 4)) land 0xF) lsl 4 in
    high lor low
  | Sub ->
    let low = ((a land 0xF) - (b land 0xF)) land 0xF in
    let high = (((a lsr 4) - (b lsr 4)) land 0xF) lsl 4 in
    high lor low
  | And | Or | Xor -> exact op a b

let approx_correct op a b = approx op a b = exact op a b

let operand_value op a b =
  Value.Tuple [ Value.Int (int_of_op op); Value.Int a; Value.Int b ]

(* The three fields of an operand triple are read in place: an
   application builds only its result. *)
let operand_func ~name ~delay ~area f =
  Func.unary ~name ~delay ~area (function
    | Value.Tuple [ o; a; b ] ->
      f (op_of_int (Value.to_int o)) (Value.to_int a) (Value.to_int b)
    | (Value.Unit | Value.Bool _ | Value.Int _ | Value.Word _ | Value.Str _
      | Value.Tuple _) as v ->
      invalid_arg (Fmt.str "Alu: not an operand triple: %a" Value.pp v))

let exact_func () =
  operand_func ~name:"alu_exact" ~delay:10.0 ~area:900.0 (fun op a b ->
      Value.Int (exact op a b))

let approx_func () =
  operand_func ~name:"alu_approx" ~delay:6.0 ~area:640.0 (fun op a b ->
      Value.Int (approx op a b))

let error_func () =
  operand_func ~name:"alu_err" ~delay:3.8 ~area:60.0 (fun op a b ->
      Value.Int (if approx_correct op a b then 0 else 1))

(* Local deterministic generator; the datapath library stays independent
   of the simulator's RNG. *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let operands ~error_rate_pct ~seed n =
  let s = ref (lcg (seed lxor 0x5DEECE6)) in
  let draw bound =
    s := lcg !s;
    !s mod bound
  in
  List.init n (fun _ ->
      let want_error = draw 100 < error_rate_pct in
      if want_error then begin
        (* Force a carry across the nibble boundary on an Add. *)
        let la = 8 + draw 8 and lb = 8 + draw 8 in
        (* low nibbles sum >= 16 *)
        let ha = draw 16 and hb = draw 16 in
        (Add, (ha lsl 4) lor la, (hb lsl 4) lor lb)
      end
      else begin
        (* No carry across the boundary: low nibbles sum < 16. *)
        let la = draw 8 and lb = draw 8 in
        let ha = draw 16 and hb = draw 16 in
        (Add, (ha lsl 4) lor la, (hb lsl 4) lor lb)
      end)
