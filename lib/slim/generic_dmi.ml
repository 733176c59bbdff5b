module Model = Si_metamodel.Model
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

(* Generation is [Model.compile]: the model's constructs and the
   connectors applicable to each (inherited ones included) become lookups,
   the specialization a code-generating DMI would bake in. The compiled
   form snapshots the model as of generation; evolving the model requires
   regenerating the DMI (as it would with generated code). *)
type t = Model.compiled

let for_model = Model.compile
let model = Model.source

let operations g =
  let name = Model.name_of g in
  let creates, deletes =
    List.filter_map
      (fun c ->
        match c.Model.kind with
        | Model.Literal_construct -> None
        | Model.Construct | Model.Mark_construct -> Some (name c))
      (Model.constructs g)
    |> fun names ->
    ( List.map (fun n -> "Create_" ^ n) names,
      List.map (fun n -> "Delete_" ^ n) names )
  in
  let updates =
    List.map
      (fun conn ->
        Printf.sprintf "Update_%s_%s" (name conn.Model.conn_domain)
          conn.Model.conn_predicate)
      (Model.connectors g)
  in
  List.sort String.compare (creates @ deletes @ updates)

let ( let* ) = Result.bind
let trim g = Model.trim (model g)

let find_construct_checked g name =
  match Model.find_construct (model g) name with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "model %s has no construct %S" (Model.name (model g))
           name)

let create g construct_name =
  let* c = find_construct_checked g construct_name in
  match c.Model.kind with
  | Model.Literal_construct ->
      Error
        (Printf.sprintf "%S is a literal construct; literals have no instances"
           construct_name)
  | Model.Construct | Model.Mark_construct ->
      Ok (Model.new_instance (model g) c ())

let construct_of g inst =
  Option.map (Model.name_of g) (Model.construct_of_instance g inst)

let instance_checked g inst =
  match Model.construct_of_instance g inst with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "<%s> is not an instance of model %s" inst
           (Model.name (model g)))

let delete g inst =
  let* _ = instance_checked g inst in
  Ok (Model.delete_instance (model g) inst)

let instances g construct_name =
  let* c = find_construct_checked g construct_name in
  Ok (Model.instances_of (model g) c)

(* Checked property access: the connector must exist on the instance's
   construct, and the value must fit its range. *)
let connector_checked g inst pred =
  let* c = instance_checked g inst in
  match Model.connector_for g c pred with
  | Some conn -> Ok conn
  | None ->
      Error
        (Printf.sprintf "construct %s has no connector %S" (Model.name_of g c)
           pred)

let check_value g conn value =
  match Model.check_range g conn value with
  | Ok () -> Ok ()
  | Error e ->
      let pred = conn.Model.conn_predicate in
      let range = Model.name_of g conn.Model.conn_range in
      Error
        (match e with
        | Model.Literal_expected r ->
            Printf.sprintf "%s expects a literal %s, got resource <%s>" pred
              range r
        | Model.Resource_expected l ->
            Printf.sprintf "%s expects a %s resource, got literal %S" pred
              range l
        | Model.Dangling r | Model.Outside_model r ->
            Printf.sprintf "<%s> is not an instance of this model" r
        | Model.Wrong_construct (r, actual) ->
            Printf.sprintf "%s expects a %s, <%s> is a %s" pred range r
              (Model.name_of g actual))

let set g inst pred value =
  let* conn = connector_checked g inst pred in
  let* () = check_value g conn value in
  Model.set_property (model g) inst pred value;
  Ok ()

let add g inst pred value =
  let* conn = connector_checked g inst pred in
  let* () = check_value g conn value in
  match conn.Model.card.Model.max_card with
  | Some max
    when List.length (Trim.select ~subject:inst ~predicate:pred (trim g))
         >= max ->
      Error (Printf.sprintf "%s allows at most %d value(s)" pred max)
  | Some _ | None ->
      Model.add_property (model g) inst pred value;
      Ok ()

let unset g inst pred =
  let* _ = connector_checked g inst pred in
  let doomed = Trim.select ~subject:inst ~predicate:pred (trim g) in
  List.iter (fun tr -> ignore (Trim.remove (trim g) tr)) doomed;
  Ok (List.length doomed)

let get g inst pred = Model.property (model g) inst pred

let get_all g inst pred =
  Trim.select ~subject:inst ~predicate:pred (trim g)
  |> List.map (fun (tr : Triple.t) -> tr.object_)

let get_literal g inst pred =
  Trim.literal_of (trim g) ~subject:inst ~predicate:pred

let get_resource g inst pred =
  Trim.resource_of (trim g) ~subject:inst ~predicate:pred
