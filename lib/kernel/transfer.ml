type entry = { cycle : int; value : Value.t }

(* Stored in reverse order so that [record] is O(1). *)
type t = { rev : entry list; count : int }

let empty = { rev = []; count = 0 }

let record t ~cycle value =
  { rev = { cycle; value } :: t.rev; count = t.count + 1 }

let entries t = List.rev t.rev

let values t = List.rev_map (fun e -> e.value) t.rev

let length t = t.count

let suffix t n =
  let k = t.count - max n 0 in
  match t.rev with
  | last :: _ when k > 0 ->
    let a = Array.make k last in
    let rec fill i = function
      | e :: rest when i >= 0 ->
        a.(i) <- e;
        fill (i - 1) rest
      | _ -> ()
    in
    fill (k - 1) t.rev;
    a
  | _ -> [||]

let equivalent a b = List.equal Value.equal (values a) (values b)

let prefix_equivalent a b =
  let rec is_prefix xs ys =
    match xs, ys with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' -> Value.equal x y && is_prefix xs' ys'
  in
  let va = values a and vb = values b in
  if length a <= length b then is_prefix va vb else is_prefix vb va

let pp ppf t =
  let pp_entry ppf e = Fmt.pf ppf "%d:%a" e.cycle Value.pp e.value in
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp_entry) (entries t)
