(* Fixed layout: exact unit buckets for 0..15, then octaves of 8
   geometric sub-buckets.  Octave [o] (values in [2^o, 2^(o+1))) splits
   at multiples of 2^(o-3), so the relative width of any bucket is at
   most 1/8.  63-bit ints top out in octave 61, whose last bucket ends
   exactly at [max_int]. *)

let first_octave = 4

let last_octave = 61

let n_buckets = 16 + ((last_octave - first_octave + 1) * 8)

let bucket_of v =
  if v < 16 then if v < 0 then 0 else v
  else begin
    let oct = ref 0 in
    let x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      incr oct
    done;
    let idx =
      16 + ((!oct - first_octave) * 8) + ((v lsr (!oct - 3)) land 7)
    in
    if idx >= n_buckets then n_buckets - 1 else idx
  end

let bucket_upper idx =
  if idx < 16 then idx
  else
    let oct = first_octave + ((idx - 16) / 8) in
    let sub = (idx - 16) mod 8 in
    let step = 1 lsl (oct - 3) in
    (1 lsl oct) + ((sub + 1) * step) - 1

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : int;
  mutable min : int;  (* max_int when empty *)
  mutable max : int;  (* -1 when empty *)
}

let create () =
  { counts = Array.make n_buckets 0;
    count = 0;
    sum = 0;
    min = max_int;
    max = -1 }

let observe t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let count t = t.count

let sum t = t.sum

let min_value t = if t.count = 0 then 0 else t.min

let max_value t = if t.count = 0 then 0 else t.max

let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let quantile_of ~counts ~count q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q outside [0, 1]";
  if count = 0 then 0
  else begin
    let target = int_of_float (Float.ceil (q *. float_of_int count)) in
    let target = if target < 1 then 1 else target in
    let cum = ref 0 in
    let idx = ref 0 in
    (try
       for i = 0 to Array.length counts - 1 do
         cum := !cum + counts.(i);
         if !cum >= target then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    bucket_upper !idx
  end

let quantile t q = quantile_of ~counts:t.counts ~count:t.count q

let reset t =
  Array.fill t.counts 0 n_buckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.min <- max_int;
  t.max <- -1

type snapshot = {
  s_counts : int array;
  sn_count : int;
  sn_sum : int;
  sn_min : int;
  sn_max : int;
}

(* A snapshot's counts stop at its last non-empty bucket: a campaign
   keeps one snapshot per scenario, most holding one small value, and
   the full layout is 480 buckets. *)
let trimmed counts =
  let n = ref (Array.length counts) in
  while !n > 0 && counts.(!n - 1) = 0 do
    decr n
  done;
  Array.sub counts 0 !n

let snapshot t =
  { s_counts = trimmed t.counts;
    sn_count = t.count;
    sn_sum = t.sum;
    sn_min = t.min;
    sn_max = t.max }

let empty =
  { s_counts = [||];
    sn_count = 0;
    sn_sum = 0;
    sn_min = max_int;
    sn_max = -1 }

let merge a b =
  let get c i = if i < Array.length c then c.(i) else 0 in
  { s_counts =
      Array.init
        (max (Array.length a.s_counts) (Array.length b.s_counts))
        (fun i -> get a.s_counts i + get b.s_counts i);
    sn_count = a.sn_count + b.sn_count;
    sn_sum = a.sn_sum + b.sn_sum;
    sn_min = min a.sn_min b.sn_min;
    sn_max = max a.sn_max b.sn_max }

let s_count s = s.sn_count

let s_sum s = s.sn_sum

let s_min s = if s.sn_count = 0 then 0 else s.sn_min

let s_max s = if s.sn_count = 0 then 0 else s.sn_max

let s_quantile s q = quantile_of ~counts:s.s_counts ~count:s.sn_count q

let s_buckets s =
  let acc = ref [] in
  let cum = ref 0 in
  for i = 0 to Array.length s.s_counts - 1 do
    if s.s_counts.(i) > 0 then begin
      cum := !cum + s.s_counts.(i);
      acc := (bucket_upper i, !cum) :: !acc
    end
  done;
  List.rev !acc

(* Exact snapshot serialization for the runner's checkpoint files: the
   sparse bucket list plus the scalar fields reproduce the snapshot
   bit-for-bit (the empty sentinels min=max_int / max=-1 are carried by
   returning [empty] for a zero count), so a merged snapshot rebuilt
   from a checkpoint renders byte-identically. *)
let s_to_json s =
  let buckets = ref [] in
  for i = Array.length s.s_counts - 1 downto 0 do
    if s.s_counts.(i) > 0 then
      buckets :=
        Json.List [ Json.Int i; Json.Int s.s_counts.(i) ] :: !buckets
  done;
  Json.Obj
    [ ("count", Json.Int s.sn_count);
      ("sum", Json.Int s.sn_sum);
      ("min", Json.Int (if s.sn_count = 0 then 0 else s.sn_min));
      ("max", Json.Int (if s.sn_count = 0 then 0 else s.sn_max));
      ("buckets", Json.List !buckets) ]

let s_of_json j =
  let ( let* ) = Result.bind in
  let int_field name =
    match Json.member name j with
    | Some (Json.Int i) -> Ok i
    | Some _ -> Error (Fmt.str "histogram field %S is not an int" name)
    | None -> Error (Fmt.str "histogram field %S missing" name)
  in
  let* count = int_field "count" in
  if count = 0 then Ok empty
  else
    let* sum = int_field "sum" in
    let* mn = int_field "min" in
    let* mx = int_field "max" in
    let* counts =
      match Json.member "buckets" j with
      | Some (Json.List items) ->
        let counts = Array.make n_buckets 0 in
        let rec fill = function
          | [] -> Ok counts
          | Json.List [ Json.Int i; Json.Int c ] :: rest ->
            if i < 0 || i >= n_buckets then
              Error (Fmt.str "histogram bucket index %d out of range" i)
            else if c < 0 then
              Error (Fmt.str "negative histogram bucket count %d" c)
            else begin
              counts.(i) <- c;
              fill rest
            end
          | _ -> Error "histogram bucket is not an [index, count] pair"
        in
        fill items
      | Some _ -> Error "histogram field \"buckets\" is not a list"
      | None -> Error "histogram field \"buckets\" missing"
    in
    let total = Array.fold_left ( + ) 0 counts in
    if total <> count then
      Error
        (Fmt.str "histogram bucket counts sum to %d, count says %d" total
           count)
    else
      Ok { s_counts = trimmed counts; sn_count = count; sn_sum = sum;
           sn_min = mn; sn_max = mx }
