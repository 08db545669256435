open Elastic_netlist

(** Single-error-correction, double-error-detection code for 64-bit words
    (§5.2): an extended Hamming (72, 64) code — 7 Hamming check bits plus
    one overall parity bit, 8 check bits per 64 bits of data as in the
    paper.

    The codeword lays data and check bits out over positions 1..71 of the
    classical Hamming arrangement (check bits at power-of-two positions)
    plus the overall parity at position 0. *)

type codeword = {
  data : int64;  (** The 64 data bits (possibly corrupted). *)
  check : int;  (** 8 check bits: Hamming syndrome bits + overall parity. *)
}

val encode : int64 -> codeword

type verdict =
  | No_error
  | Corrected of int64  (** Single error fixed; the corrected data. *)
  | Double_error  (** Two errors detected, not correctable. *)

val decode : codeword -> verdict

(** [flip_bit cw i] flips one of the 72 codeword bits; [i] in [0, 71].
    Indices [0..63] hit data bits, [64..71] hit check bits.
    @raise Invalid_argument out of range. *)
val flip_bit : codeword -> int -> codeword

val equal_codeword : codeword -> codeword -> bool

(** {1 Netlist function specs}

    Delay/area figures (normalized units / gate equivalents) for using
    SECDED inside elastic netlists: the encoder+checker occupies a whole
    pipeline stage in the paper's design. *)

(** Checker/corrector: [Tuple [Word w; Int check] -> Tuple [Word corrected;
    Int err]] with [err] 0 = clean, 1 = corrected, 2 = double error. *)
val corrector_func : unit -> Func.t
