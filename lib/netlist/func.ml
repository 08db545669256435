(* Bring the SELF kernel modules (Value, Signal, ...) into scope. *)
open Elastic_kernel

type t = {
  name : string;
  arity : int;
  eval : Value.t list -> Value.t;
  eval1 : Value.t -> Value.t;
  delay : float;
  area : float;
}

let check ~name ~arity ~delay ~area =
  if arity < 0 then invalid_arg (name ^ ": negative arity");
  if delay < 0.0 || area < 0.0 then
    invalid_arg (name ^ ": negative delay or area")

let arity_error name expected got =
  invalid_arg
    (Fmt.str "Func.apply %s: expected %d arguments, got %d" name expected got)

let make ~name ~arity ~delay ~area eval =
  check ~name:"Func.make" ~arity ~delay ~area;
  let eval1 =
    if arity = 1 then fun v -> eval [ v ] else fun _ -> arity_error name arity 1
  in
  { name; arity; eval; eval1; delay; area }

let unary ~name ~delay ~area eval1 =
  check ~name:"Func.unary" ~arity:1 ~delay ~area;
  let eval = function
    | [ v ] -> eval1 v
    | vs -> arity_error name 1 (List.length vs)
  in
  { name; arity = 1; eval; eval1; delay; area }

let apply f vs =
  let n = List.length vs in
  if n <> f.arity then arity_error f.name f.arity n;
  f.eval vs

let identity ?(delay = 0.0) ?(area = 0.0) () =
  unary ~name:"id" ~delay ~area Fun.id

let const ?(delay = 0.0) ?(area = 0.0) v =
  unary ~name:(Fmt.str "const(%a)" Value.pp v) ~delay ~area (fun _ -> v)

let add_int ?(delay = 4.0) ?(area = 40.0) ~arity () =
  make ~name:"add" ~arity ~delay ~area (fun vs ->
      Value.Int (List.fold_left (fun acc v -> acc + Value.to_int v) 0 vs))

let inc ?(delay = 2.0) ?(area = 12.0) ~step () =
  unary ~name:(Fmt.str "inc%+d" step) ~delay ~area (fun v ->
      Value.Int (Value.to_int v + step))

let select ?(delay = 1.0) ?(area = 10.0) ~ways () =
  make ~name:(Fmt.str "select%d" ways) ~arity:(ways + 1) ~delay ~area
    (function
    | sel :: data ->
      let i = Value.to_int sel in
      if i < 0 || i >= List.length data then
        invalid_arg (Fmt.str "select: index %d out of range" i)
      else List.nth data i
    | [] -> assert false)

let pp ppf f =
  Fmt.pf ppf "%s/%d (delay %.1f, area %.1f)" f.name f.arity f.delay f.area
