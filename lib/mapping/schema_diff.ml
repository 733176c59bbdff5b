module Model = Si_metamodel.Model

type change =
  | Construct_added of string
  | Construct_removed of string
  | Construct_rekinded of { name : string; from_ : string; to_ : string }
  | Connector_added of { domain : string; predicate : string; min_card : int }
  | Connector_removed of { domain : string; predicate : string }
  | Cardinality_changed of {
      domain : string;
      predicate : string;
      from_ : string;
      to_ : string;
    }
  | Range_changed of {
      domain : string;
      predicate : string;
      from_ : string;
      to_ : string;
    }
  | Generalization_added of { sub : string; super : string }
  | Generalization_removed of { sub : string; super : string }

(* Matching is by name: constructs by their name, connectors by (domain
   name, predicate), generalization by the (sub, super) name pairs of the
   transitive closure, which is what compatibility cares about. *)
let diff old_model new_model =
  let old_cm = Model.compile old_model and new_cm = Model.compile new_model in
  let lookup_construct cm name =
    List.find_opt (fun c -> Model.name_of cm c = name) (Model.constructs cm)
  in
  let construct_changes =
    List.filter_map
      (fun c ->
        let name = Model.name_of old_cm c in
        match lookup_construct new_cm name with
        | None -> Some (Construct_removed name)
        | Some c' when c'.Model.kind <> c.Model.kind ->
            Some
              (Construct_rekinded
                 {
                   name;
                   from_ = Model.kind_name c.Model.kind;
                   to_ = Model.kind_name c'.Model.kind;
                 })
        | Some _ -> None)
      (Model.constructs old_cm)
    @ List.filter_map
        (fun c ->
          let name = Model.name_of new_cm c in
          if lookup_construct old_cm name = None then Some (Construct_added name)
          else None)
        (Model.constructs new_cm)
  in
  let key cm conn =
    (Model.name_of cm conn.Model.conn_domain, conn.Model.conn_predicate)
  in
  let lookup_connector cm k =
    List.find_opt (fun conn -> key cm conn = k) (Model.connectors cm)
  in
  let connector_changes =
    List.concat_map
      (fun conn ->
        let ((domain, predicate) as k) = key old_cm conn in
        match lookup_connector new_cm k with
        | None -> [ Connector_removed { domain; predicate } ]
        | Some conn' ->
            let card_change =
              if conn.Model.card <> conn'.Model.card then
                [
                  Cardinality_changed
                    {
                      domain;
                      predicate;
                      from_ = Model.card_to_string conn.Model.card;
                      to_ = Model.card_to_string conn'.Model.card;
                    };
                ]
              else []
            in
            let from_ = Model.name_of old_cm conn.Model.conn_range in
            let to_ = Model.name_of new_cm conn'.Model.conn_range in
            card_change
            @
            if from_ <> to_ then
              [ Range_changed { domain; predicate; from_; to_ } ]
            else [])
      (Model.connectors old_cm)
    @ List.filter_map
        (fun conn ->
          let domain, predicate = key new_cm conn in
          if lookup_connector old_cm (domain, predicate) <> None then None
          else
            Some
              (Connector_added
                 { domain; predicate; min_card = conn.Model.card.Model.min_card }))
        (Model.connectors new_cm)
  in
  let isa_pairs cm =
    List.concat_map
      (fun c ->
        List.map
          (fun s -> (Model.name_of cm c, Model.name_of cm s))
          (Model.ancestors cm c))
      (Model.constructs cm)
    |> List.sort_uniq compare
  in
  let old_gen = isa_pairs old_cm and new_gen = isa_pairs new_cm in
  let gen_changes =
    List.filter_map
      (fun (sub, super) ->
        if List.mem (sub, super) new_gen then None
        else Some (Generalization_removed { sub; super }))
      old_gen
    @ List.filter_map
        (fun (sub, super) ->
          if List.mem (sub, super) old_gen then None
          else Some (Generalization_added { sub; super }))
        new_gen
  in
  List.sort compare (construct_changes @ connector_changes @ gen_changes)

let is_backward_compatible changes =
  List.for_all
    (function
      | Construct_added _ | Generalization_added _ -> true
      | Connector_added { min_card; _ } -> min_card = 0
      | Construct_removed _ | Construct_rekinded _ | Connector_removed _
      | Cardinality_changed _ | Range_changed _ | Generalization_removed _ ->
          false)
    changes

let change_to_string = function
  | Construct_added n -> Printf.sprintf "+ construct %s" n
  | Construct_removed n -> Printf.sprintf "- construct %s" n
  | Construct_rekinded { name; from_; to_ } ->
      Printf.sprintf "~ construct %s: %s -> %s" name from_ to_
  | Connector_added { domain; predicate; min_card } ->
      Printf.sprintf "+ %s.%s (min %d)" domain predicate min_card
  | Connector_removed { domain; predicate } ->
      Printf.sprintf "- %s.%s" domain predicate
  | Cardinality_changed { domain; predicate; from_; to_ } ->
      Printf.sprintf "~ %s.%s cardinality: %s -> %s" domain predicate from_ to_
  | Range_changed { domain; predicate; from_; to_ } ->
      Printf.sprintf "~ %s.%s range: %s -> %s" domain predicate from_ to_
  | Generalization_added { sub; super } ->
      Printf.sprintf "+ %s isa %s" sub super
  | Generalization_removed { sub; super } ->
      Printf.sprintf "- %s isa %s" sub super

let pp ppf changes =
  List.iter (fun c -> Format.fprintf ppf "%s@." (change_to_string c)) changes
