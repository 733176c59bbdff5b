module Xml = Si_xmlk

let resolve_ok_count = Si_obs.Registry.counter "mark.resolve"
let resolve_error_count = Si_obs.Registry.counter "mark.resolve_error"
let resolve_latency = Si_obs.Registry.histogram "mark.resolve"

type mark_module = {
  module_name : string;
  handles_type : string;
  validate : (string * string) list -> (unit, string) result;
  resolve : (string * string) list -> (Mark.resolution, string) result;
}

type change = Mark_put of Mark.t | Mark_removed of string

type t = {
  modules : (string, mark_module) Hashtbl.t;  (* by module_name *)
  marks : (string, Mark.t) Hashtbl.t;  (* by mark id *)
  linters : (string, (string * string) list -> string list) Hashtbl.t;
      (* by mark type *)
  mutable counter : int;
  mutable observer : (change -> unit) option;
}

let create () =
  {
    modules = Hashtbl.create 8;
    marks = Hashtbl.create 64;
    linters = Hashtbl.create 8;
    counter = 0;
    observer = None;
  }

let on_change t f = t.observer <- Some f
let notify t change = match t.observer with Some f -> f change | None -> ()

let register t m =
  if Hashtbl.mem t.modules m.module_name then
    Error (Printf.sprintf "mark module %S already registered" m.module_name)
  else begin
    Hashtbl.add t.modules m.module_name m;
    Ok ()
  end

let register_exn t m =
  match register t m with Ok () -> () | Error msg -> invalid_arg msg

let module_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.modules []
  |> List.sort String.compare

let modules_for_type t mark_type =
  Hashtbl.fold
    (fun _ m acc -> if m.handles_type = mark_type then m :: acc else acc)
    t.modules []
  |> List.sort (fun a b -> String.compare a.module_name b.module_name)

let supported_types t =
  Hashtbl.fold (fun _ m acc -> m.handles_type :: acc) t.modules []
  |> List.sort_uniq String.compare

let register_address_linter t ~mark_type f =
  Hashtbl.replace t.linters mark_type f

let address_linter t mark_type = Hashtbl.find_opt t.linters mark_type

let linted_types t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.linters []
  |> List.sort_uniq String.compare

let find_module ?module_name t mark_type =
  match module_name with
  | Some name -> (
      match Hashtbl.find_opt t.modules name with
      | Some m when m.handles_type = mark_type -> Ok m
      | Some m ->
          Error
            (Printf.sprintf "module %S handles %S, not %S" name
               m.handles_type mark_type)
      | None -> Error (Printf.sprintf "no mark module named %S" name))
  | None -> (
      match modules_for_type t mark_type with
      | m :: _ -> Ok m
      | [] ->
          Error
            (Printf.sprintf "no mark module registered for type %S" mark_type))

let new_mark_id t =
  t.counter <- t.counter + 1;
  let id = Printf.sprintf "mark-%d" t.counter in
  if Hashtbl.mem t.marks id then begin
    (* Ids loaded from files may collide with the counter; skip ahead. *)
    let rec bump () =
      t.counter <- t.counter + 1;
      let id = Printf.sprintf "mark-%d" t.counter in
      if Hashtbl.mem t.marks id then bump () else id
    in
    bump ()
  end
  else id

let create_mark t ~mark_type ~fields ?excerpt () =
  match find_module t mark_type with
  | Error _ as e -> e
  | Ok m -> (
      match m.validate fields with
      | Error msg -> Error (Printf.sprintf "invalid %s address: %s" mark_type msg)
      | Ok () -> (
          let finish excerpt =
            let mark =
              Mark.make ~id:(new_mark_id t) ~mark_type ~fields ~excerpt ()
            in
            Hashtbl.add t.marks mark.Mark.mark_id mark;
            notify t (Mark_put mark);
            Ok mark
          in
          match excerpt with
          | Some e -> finish e
          | None -> (
              (* Cache the element's content at creation time. *)
              match m.resolve fields with
              | Ok res -> finish res.Mark.res_excerpt
              | Error msg ->
                  Error
                    (Printf.sprintf "cannot resolve new %s mark: %s" mark_type
                       msg))))

let add_mark t mark =
  if Hashtbl.mem t.marks mark.Mark.mark_id then
    Error (Printf.sprintf "mark %S already exists" mark.Mark.mark_id)
  else begin
    Hashtbl.add t.marks mark.Mark.mark_id mark;
    notify t (Mark_put mark);
    Ok ()
  end

let put_mark t mark =
  Hashtbl.replace t.marks mark.Mark.mark_id mark;
  notify t (Mark_put mark)

let mark t id = Hashtbl.find_opt t.marks id

let mark_exn t id =
  match mark t id with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "no mark %S" id)

let marks t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.marks []
  |> List.sort (fun a b -> String.compare a.Mark.mark_id b.Mark.mark_id)

let remove_mark t id =
  if Hashtbl.mem t.marks id then begin
    Hashtbl.remove t.marks id;
    notify t (Mark_removed id);
    true
  end
  else false

let mark_count t = Hashtbl.length t.marks

type resolve_error =
  | Unknown_mark of string
  | No_module of { mark_type : string; detail : string }
  | Resolution_failed of { source : string; detail : string }

let resolve_error_to_string = function
  | Unknown_mark id -> Printf.sprintf "no mark %S" id
  | No_module { detail; _ } -> detail
  | Resolution_failed { detail; _ } -> detail

let resolve_plain ?module_name t id =
  match mark t id with
  | None -> Error (Unknown_mark id)
  | Some m -> (
      match find_module ?module_name t m.Mark.mark_type with
      | Error detail ->
          Error (No_module { mark_type = m.Mark.mark_type; detail })
      | Ok mm -> (
          match mm.resolve m.Mark.fields with
          | Ok _ as ok -> ok
          | Error detail ->
              Error (Resolution_failed { source = Mark.source m; detail })))

let resolve ?module_name t id =
  let result =
    if Si_obs.Span.on () then
      Si_obs.Span.timed resolve_latency ~layer:"mark" ~op:"resolve" (fun () ->
          resolve_plain ?module_name t id)
    else resolve_plain ?module_name t id
  in
  (match result with
  | Ok _ -> Si_obs.Counter.incr resolve_ok_count
  | Error _ -> Si_obs.Counter.incr resolve_error_count);
  result

let resolve_with ?module_name t id behaviour =
  Result.map (Mark.apply_behaviour behaviour) (resolve ?module_name t id)

type drift =
  | Unchanged
  | Changed of { was : string; now : string }
  | Unresolvable of resolve_error
  | Quarantined of resolve_error

let check_drift t id =
  match mark t id with
  | None -> Error (Unknown_mark id)
  | Some m -> (
      match resolve t id with
      | Ok res ->
          if String.equal res.Mark.res_excerpt m.Mark.excerpt then
            Ok Unchanged
          else Ok (Changed { was = m.Mark.excerpt; now = res.Mark.res_excerpt })
      | Error e -> Ok (Unresolvable e))

let refresh_excerpt t id =
  match mark t id with
  | None -> Error (Unknown_mark id)
  | Some m -> (
      match resolve t id with
      | Error _ as e -> e
      | Ok res ->
          let updated = { m with Mark.excerpt = res.Mark.res_excerpt } in
          Hashtbl.replace t.marks id updated;
          notify t (Mark_put updated);
          Ok updated)

let to_xml t =
  Xml.Node.element "marks"
    ~attrs:[ ("count", string_of_int (mark_count t)) ]
    (List.map Mark.to_xml (marks t))

let of_xml t root =
  match root with
  | Xml.Node.Element { name = "marks"; _ } ->
      (* All-or-nothing: stage into a side table so a mid-file error (bad
         mark, duplicate id) leaves the manager exactly as it was. *)
      let staged = Hashtbl.create 64 in
      let rec load = function
        | [] ->
            Hashtbl.iter
              (fun id m ->
                Hashtbl.add t.marks id m;
                notify t (Mark_put m))
              staged;
            Ok ()
        | node :: rest -> (
            match Mark.of_xml node with
            | Error _ as e -> e
            | Ok m ->
                let id = m.Mark.mark_id in
                if Hashtbl.mem t.marks id || Hashtbl.mem staged id then
                  Error (Printf.sprintf "mark %S already exists" id)
                else begin
                  Hashtbl.add staged id m;
                  load rest
                end)
      in
      load (Xml.Node.find_children "mark" root)
  | _ -> Error "expected a <marks> root element"

let save t path =
  let xml = Xml.Print.to_string_pretty ~decl:true (to_xml t) in
  Si_io.Io.write_atomic path xml
  |> Result.map_error (Printf.sprintf "cannot write %s: %s" path)

let load_into t path =
  match Xml.Parse.file path with
  | Error e -> Error (Xml.Parse.error_to_string e)
  | Ok root -> of_xml t (Xml.Node.strip_whitespace root)
