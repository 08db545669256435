open Elastic_kernel
open Elastic_netlist

type codeword = { data : int64; check : int }

(* Codeword positions 1..71: powers of two hold check bits c0..c6, the
   remaining 64 positions hold data bits in increasing order. *)
let is_power_of_two p = p land (p - 1) = 0

let data_positions =
  let rec build pos acc =
    if pos > 71 then List.rev acc
    else if is_power_of_two pos then build (pos + 1) acc
    else build (pos + 1) (pos :: acc)
  in
  Array.of_list (build 1 [])

let () = assert (Array.length data_positions = 64)

(* position -> data bit index, or -1 for check positions *)
let data_index_of_position =
  let t = Array.make 72 (-1) in
  Array.iteri (fun i p -> t.(p) <- i) data_positions;
  t

(* The classical Hamming identity: the recomputed check vector is the
   XOR of the codeword positions of the set data bits.  The per-byte
   table below packs, for byte [b] at data bits [8k..8k+7], that
   position-XOR (low 7 bits — positions are < 128) together with the
   byte's popcount parity at bit 7; XOR distributes over both packed
   fields, so folding eight table entries yields the full check vector
   and the data parity in one pass.  The decoder sits on the
   simulator's per-token datapath (every E6 token crosses it), which
   is why this replaces the original 64x7 per-bit loop. *)
let syndrome_tab =
  let t = Array.make (8 * 256) 0 in
  for k = 0 to 7 do
    for b = 0 to 255 do
      let acc = ref 0 in
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then
          acc := !acc lxor data_positions.((8 * k) + bit) lxor 0x80
      done;
      t.((k lsl 8) lor b) <- !acc
    done
  done;
  t

(* Low 7 bits: recomputed Hamming checks; bit 7: data parity. *)
let fold_syndrome data =
  let lo = Int64.to_int (Int64.logand data 0xFFFF_FFFFL)
  and hi = Int64.to_int (Int64.shift_right_logical data 32) in
  let acc = ref 0 in
  for k = 0 to 3 do
    acc :=
      !acc
      lxor Array.unsafe_get syndrome_tab
             ((k lsl 8) lor ((lo lsr (8 * k)) land 0xff))
      lxor Array.unsafe_get syndrome_tab
             (((k + 4) lsl 8) lor ((hi lsr (8 * k)) land 0xff))
  done;
  !acc

let parity8 x =
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

let encode data =
  let acc = fold_syndrome data in
  let hamming = acc land 0x7f in
  (* Overall parity covers all 71 positions (data + hamming checks). *)
  let parity = (acc lsr 7) lxor parity8 hamming in
  { data; check = hamming lor (parity lsl 7) }

type verdict = No_error | Corrected of int64 | Double_error

let decode cw =
  let acc = fold_syndrome cw.data in
  (* Syndrome: recomputed check vector vs received checks; parity folds
     the data bits with all eight received check bits. *)
  let syndrome = (acc land 0x7f) lxor (cw.check land 0x7f) in
  let parity = (acc lsr 7) lxor parity8 (cw.check land 0xff) in
  match syndrome, parity with
  | 0, 0 -> No_error
  | 0, _ ->
    (* Error in the overall parity bit itself: data is intact. *)
    Corrected cw.data
  | s, 1 ->
    if s > 71 then Double_error
    else begin
      let di = data_index_of_position.(s) in
      if di < 0 then Corrected cw.data (* a check bit was hit *)
      else Corrected (Int64.logxor cw.data (Int64.shift_left 1L di))
    end
  | _, _ -> Double_error

let flip_bit cw i =
  if i < 0 || i > 71 then invalid_arg "Secded.flip_bit: index out of range";
  if i < 64 then
    { cw with data = Int64.logxor cw.data (Int64.shift_left 1L i) }
  else { cw with check = cw.check lxor (1 lsl (i - 64)) }

let equal_codeword a b = Int64.equal a.data b.data && a.check = b.check

let codeword_of_value v =
  match v with
  | Value.Tuple [ Value.Word data; Value.Int check ] -> { data; check }
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Word _ | Value.Str _
  | Value.Tuple _ ->
    invalid_arg (Fmt.str "Secded: not a codeword: %a" Value.pp v)

let corrector_func () =
  Func.unary ~name:"secded_cor" ~delay:7.0 ~area:320.0 (fun v ->
      let cw = codeword_of_value v in
      let out corrected err =
        Value.Tuple [ Value.Word corrected; Value.Int err ]
      in
      match decode cw with
      | No_error -> out cw.data 0
      | Corrected d -> out d 1
      | Double_error -> out cw.data 2)
