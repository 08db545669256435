let start ~seed = (seed lxor 0x2545F491) land 0x3FFFFFFF

let advance s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

type t = { mutable s : int }

let create ~seed = { s = start ~seed }

let next t =
  t.s <- advance t.s;
  t.s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  next t mod bound

let percent t pct = int t 100 < pct
