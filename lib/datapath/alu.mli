(** The 8-bit variable-latency ALU of §5.1.

    [exact] is the reference function.  [approx] is the telescopic-unit
    approximation: the carry (or borrow) chain is cut at the nibble
    boundary, shortening the critical path; it is wrong exactly when a
    carry/borrow crosses that boundary.  An error detector compares the
    nibble-boundary carry against the approximation's assumption. *)

type op = Add | Sub | And | Or | Xor

val op_of_int : int -> op

(** Exact 8-bit result (wraps mod 256). *)
val exact : op -> int -> int -> int

(** Approximate result; equals [exact] unless a carry/borrow crosses the
    nibble boundary on Add/Sub.  Logic ops are always exact. *)
val approx : op -> int -> int -> int

(** Does [approx] agree with [exact] on these operands? *)
val approx_correct : op -> int -> int -> bool

(** Operand encoding on elastic channels:
    [Tuple [Int opcode; Int a; Int b]] with [a], [b] in [0, 255]. *)
val operand_value : op -> int -> int -> Elastic_kernel.Value.t

(** {1 Netlist function specs} *)

(** Full ALU: long carry chain — the paper's [F_exact]. *)
val exact_func : unit -> Elastic_netlist.Func.t

(** Truncated-carry ALU — the paper's [F_approx]; ~40 % shorter delay. *)
val approx_func : unit -> Elastic_netlist.Func.t

(** Error detector [F_err]: operands -> [Int 1] iff the approximation is
    wrong.  Cheap but, chained after [F_approx], it lengthens the stalling
    design's critical path (§5.1). *)
val error_func : unit -> Elastic_netlist.Func.t

(** {1 Workload generation} *)

(** [operands ~error_rate_pct ~seed n] draws [n] operand triples such that
    the approximation fails on approximately [error_rate_pct] percent of
    them (deterministic in [seed]). *)
val operands : error_rate_pct:int -> seed:int -> int -> (op * int * int) list
