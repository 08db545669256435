let table : (string, Func.t) Hashtbl.t = Hashtbl.create 32

let register f = Hashtbl.replace table f.Func.name f

(* The standard function families of {!Func}. *)
let builtin ~name ~arity =
  if String.equal name "id" && arity = 1 then Some (Func.identity ())
  else if String.equal name "add" then Some (Func.add_int ~arity ())
  else
    match
      if String.length name > 3 && String.sub name 0 3 = "inc" then
        int_of_string_opt (String.sub name 3 (String.length name - 3))
      else None
    with
    | Some step -> Some (Func.inc ~step ())
    | None ->
      (match
         if String.length name > 6 && String.sub name 0 6 = "select" then
           int_of_string_opt (String.sub name 6 (String.length name - 6))
         else None
       with
       | Some ways when ways >= 1 && arity = ways + 1 ->
         Some (Func.select ~ways ())
       | Some _ | None -> None)

let resolve ~name ~arity ~delay ~area =
  let restore f = { f with Func.delay; area } in
  match Hashtbl.find_opt table name with
  | Some f when f.Func.arity = arity -> Ok (restore f)
  | Some f ->
    Error
      (Fmt.str "function %s registered with arity %d, file says %d" name
         f.Func.arity arity)
  | None ->
    (match builtin ~name ~arity with
     | Some f when f.Func.arity = arity -> Ok (restore f)
     | Some _ | None ->
       Error
         (Fmt.str
            "unknown function %S: register it with Library.register before \
             loading"
            name))
