module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

type t = { trim : Trim.t; model_id : string; model_name : string }
type construct_kind = Construct | Literal_construct | Mark_construct
type construct = { construct_id : string; kind : construct_kind }
type cardinality = { min_card : int; max_card : int option }

type connector = {
  connector_id : string;
  conn_predicate : string;
  conn_domain : construct;
  conn_range : construct;
  card : cardinality;
}

let any_card = { min_card = 0; max_card = None }
let optional_card = { min_card = 0; max_card = Some 1 }
let one_card = { min_card = 1; max_card = Some 1 }
let at_least_one = { min_card = 1; max_card = None }

let name t = t.model_name
let id t = t.model_id
let trim t = t.trim

(* Model ids are derived from the name so they are stable across runs. *)
let model_id_of_name model_name = "model:" ^ model_name

(* The model's own resources (the model, its constructs and connectors)
   carry a handful of triples each, so they are read with one
   subject-bound select and the predicates picked out of that list,
   rather than with one select per predicate. Both list rows newest
   first ({!Si_triple.Store}), so the first object of a predicate is the
   one [Trim.object_of] gives. *)
let first_object triples predicate =
  List.find_map
    (fun (tr : Triple.t) ->
      if String.equal tr.predicate predicate then Some tr.object_ else None)
    triples

let first_literal triples predicate =
  match first_object triples predicate with
  | Some (Triple.Literal s) -> Some s
  | Some (Triple.Resource _) | None -> None

let first_resource triples predicate =
  match first_object triples predicate with
  | Some (Triple.Resource r) -> Some r
  | Some (Triple.Literal _) | None -> None

let find trim ~name =
  let model_id = model_id_of_name name in
  match first_literal (Trim.select ~subject:model_id trim) Vocab.rdfs_label with
  | Some label when label = name -> Some { trim; model_id; model_name = name }
  | Some _ | None -> None

let define trim ~name =
  match find trim ~name with
  | Some m -> m
  | None ->
      let model_id = model_id_of_name name in
      ignore
        (Trim.add trim
           (Triple.make model_id Vocab.rdf_type (Triple.resource Vocab.model)));
      ignore
        (Trim.add trim
           (Triple.make model_id Vocab.rdfs_label (Triple.literal name)));
      { trim; model_id; model_name = name }

let all trim =
  Trim.select ~predicate:Vocab.rdf_type
    ~object_:(Triple.resource Vocab.model) trim
  |> List.filter_map (fun (tr : Triple.t) ->
         Option.map
           (fun label -> { trim; model_id = tr.subject; model_name = label })
           (Trim.literal_of trim ~subject:tr.subject
              ~predicate:Vocab.rdfs_label))
  |> List.sort (fun a b -> String.compare a.model_name b.model_name)

(* ---------------------------------------------------------- constructs *)

let kind_class = function
  | Construct -> Vocab.construct
  | Literal_construct -> Vocab.literal_construct
  | Mark_construct -> Vocab.mark_construct

let kind_of_class c =
  if c = Vocab.construct then Some Construct
  else if c = Vocab.literal_construct then Some Literal_construct
  else if c = Vocab.mark_construct then Some Mark_construct
  else None

let construct_id_of_name m construct_name =
  m.model_id ^ "/" ^ construct_name

let construct_of_id m construct_id =
  Option.bind
    (first_resource (Trim.select ~subject:construct_id m.trim) Vocab.rdf_type)
    (fun c -> Option.map (fun kind -> { construct_id; kind }) (kind_of_class c))

let find_construct m construct_name =
  construct_of_id m (construct_id_of_name m construct_name)

let make_construct m kind construct_name =
  match find_construct m construct_name with
  | Some existing ->
      if existing.kind <> kind then
        invalid_arg
          (Printf.sprintf "Model: construct %S already exists with another kind"
             construct_name);
      existing
  | None ->
      let construct_id = construct_id_of_name m construct_name in
      let add tr = ignore (Trim.add m.trim tr) in
      add
        (Triple.make construct_id Vocab.rdf_type
           (Triple.resource (kind_class kind)));
      add
        (Triple.make construct_id Vocab.rdfs_label
           (Triple.literal construct_name));
      add (Triple.make construct_id Vocab.in_model (Triple.resource m.model_id));
      { construct_id; kind }

let construct m n = make_construct m Construct n
let literal_construct m n = make_construct m Literal_construct n
let mark_construct m n = make_construct m Mark_construct n

let construct_name m c =
  match
    Trim.literal_of m.trim ~subject:c.construct_id ~predicate:Vocab.rdfs_label
  with
  | Some label -> label
  | None -> c.construct_id

(* ------------------------------------------------------- generalization *)

let generalize m ~sub ~super =
  ignore
    (Trim.add m.trim
       (Triple.make sub.construct_id Vocab.rdfs_subclass_of
          (Triple.resource super.construct_id)))

(* ----------------------------------------------------------- connectors *)

let connector_id_of m ~domain ~name = domain ^ "#" ^ name ^ "@" ^ m.model_id

(* A cardinality literal that is not an integer makes the connector
   unreadable, like a dangling domain or range. An absent minimum is 0, an
   absent maximum unbounded. *)
let card_of triples =
  let bound p = Option.map int_of_string_opt (first_literal triples p) in
  match (bound Vocab.min_card, bound Vocab.max_card) with
  | Some None, _ | _, Some None -> None
  | min_card, max_card ->
      Some
        {
          min_card = Option.value (Option.join min_card) ~default:0;
          max_card = Option.join max_card;
        }

let connector_of_id m connector_id =
  let triples = Trim.select ~subject:connector_id m.trim in
  match
    ( first_literal triples Vocab.predicate,
      first_resource triples Vocab.domain,
      first_resource triples Vocab.range )
  with
  | Some conn_predicate, Some domain_id, Some range_id -> (
      match
        ( construct_of_id m domain_id,
          construct_of_id m range_id,
          card_of triples )
      with
      | Some conn_domain, Some conn_range, Some card ->
          Some { connector_id; conn_predicate; conn_domain; conn_range; card }
      | _ -> None)
  | _ -> None

let connect m ~name ~from_ ~to_ ?(card = any_card) () =
  let connector_id = connector_id_of m ~domain:from_.construct_id ~name in
  match connector_of_id m connector_id with
  | Some existing -> existing
  | None ->
      let add tr = ignore (Trim.add m.trim tr) in
      add
        (Triple.make connector_id Vocab.rdf_type
           (Triple.resource Vocab.connector));
      add (Triple.make connector_id Vocab.predicate (Triple.literal name));
      add
        (Triple.make connector_id Vocab.domain
           (Triple.resource from_.construct_id));
      add
        (Triple.make connector_id Vocab.range
           (Triple.resource to_.construct_id));
      add
        (Triple.make connector_id Vocab.in_model (Triple.resource m.model_id));
      add
        (Triple.make connector_id Vocab.min_card
           (Triple.literal (string_of_int card.min_card)));
      (match card.max_card with
      | Some n ->
          add
            (Triple.make connector_id Vocab.max_card
               (Triple.literal (string_of_int n)))
      | None -> ());
      {
        connector_id;
        conn_predicate = name;
        conn_domain = from_;
        conn_range = to_;
        card;
      }

(* ------------------------------------------------------------ instances *)

let new_instance m c ?id () =
  let inst =
    match id with
    | Some i -> i
    | None ->
        Trim.new_id
          ~prefix:(String.lowercase_ascii (construct_name m c) ^ "-")
          m.trim
  in
  ignore
    (Trim.add m.trim
       (Triple.make inst Vocab.rdf_type (Triple.resource c.construct_id)));
  inst

let instance_type trim inst =
  Trim.resource_of trim ~subject:inst ~predicate:Vocab.rdf_type

let instances_of m c =
  Trim.select ~predicate:Vocab.rdf_type
    ~object_:(Triple.resource c.construct_id) m.trim
  |> List.map (fun (tr : Triple.t) -> tr.subject)
  |> List.sort String.compare

let check_not_reserved pred =
  if Vocab.is_reserved_predicate pred then
    invalid_arg
      (Printf.sprintf "Model: %S is a reserved metamodel predicate" pred)

let set_property m inst pred obj =
  check_not_reserved pred;
  Trim.set m.trim ~subject:inst ~predicate:pred obj

let add_property m inst pred obj =
  check_not_reserved pred;
  ignore (Trim.add m.trim (Triple.make inst pred obj))

let property m inst pred = Trim.object_of m.trim ~subject:inst ~predicate:pred

let properties m inst =
  Trim.select ~subject:inst m.trim
  |> List.filter (fun (tr : Triple.t) ->
         not (Vocab.is_reserved_predicate tr.predicate))
  |> List.map (fun (tr : Triple.t) -> (tr.predicate, tr.object_))
  |> List.sort compare

let delete_instance m inst =
  let outgoing = Trim.remove_subject m.trim inst in
  let incoming = Trim.select ~object_:(Triple.resource inst) m.trim in
  List.iter (fun tr -> ignore (Trim.remove m.trim tr)) incoming;
  outgoing + List.length incoming

let conform m ~instance ~to_ =
  ignore
    (Trim.add m.trim
       (Triple.make instance Vocab.conforms_to (Triple.resource to_)))

let conforms_to trim inst =
  Trim.select ~subject:inst ~predicate:Vocab.conforms_to trim
  |> List.filter_map (fun (tr : Triple.t) ->
         match tr.object_ with
         | Triple.Resource r -> Some r
         | Triple.Literal _ -> None)
  |> List.sort String.compare

(* ------------------------------------------------------------ compiled *)

module Smap = Map.Make (String)

(* What the compiled form knows about one construct of the model. *)
type member = {
  self : construct;
  label : string;
  parents : construct list;
  closure : construct Smap.t;  (* superconstructs by id, [self] excluded *)
  applicable : connector list;
}

type compiled = {
  source : t;
  members : (string, member) Hashtbl.t;
  sorted_constructs : construct list;
  sorted_connectors : connector list;
}

let direct_parents m c =
  Trim.select ~subject:c.construct_id ~predicate:Vocab.rdfs_subclass_of m.trim
  |> List.filter_map (fun (tr : Triple.t) ->
         match tr.object_ with
         | Triple.Resource r -> construct_of_id m r
         | Triple.Literal _ -> None)

(* Cycle-safe: a construct already reached is not walked again. *)
let closure m c =
  let rec walk seen = function
    | [] -> seen
    | x :: rest ->
        let fresh =
          List.filter
            (fun s -> not (Smap.mem s.construct_id seen))
            (direct_parents m x)
        in
        walk
          (List.fold_left (fun acc s -> Smap.add s.construct_id s acc) seen
             fresh)
          (fresh @ rest)
  in
  Smap.remove c.construct_id (walk (Smap.singleton c.construct_id c) [ c ])

let compile m =
  let in_model =
    Trim.select ~predicate:Vocab.in_model ~object_:(Triple.resource m.model_id)
      m.trim
    |> List.map (fun (tr : Triple.t) -> tr.subject)
  in
  let constructs = List.filter_map (construct_of_id m) in_model in
  let connectors =
    List.filter_map
      (fun id ->
        match Trim.resource_of m.trim ~subject:id ~predicate:Vocab.rdf_type with
        | Some c when c = Vocab.connector -> connector_of_id m id
        | _ -> None)
      in_model
    |> List.sort (fun a b -> String.compare a.connector_id b.connector_id)
  in
  let members = Hashtbl.create 32 in
  List.iter
    (fun c ->
      let closure = closure m c in
      let applicable =
        List.filter
          (fun conn ->
            let d = conn.conn_domain.construct_id in
            d = c.construct_id || Smap.mem d closure)
          connectors
      in
      Hashtbl.replace members c.construct_id
        {
          self = c;
          label = construct_name m c;
          parents = direct_parents m c;
          closure;
          applicable;
        })
    constructs;
  let label c = (Hashtbl.find members c.construct_id).label in
  {
    source = m;
    members;
    sorted_constructs =
      List.sort (fun a b -> String.compare (label a) (label b)) constructs;
    sorted_connectors = connectors;
  }

let source cm = cm.source
let constructs cm = cm.sorted_constructs
let connectors cm = cm.sorted_connectors

let member cm c = Hashtbl.find_opt cm.members c.construct_id

let name_of cm c =
  match member cm c with
  | Some mb -> mb.label
  | None -> construct_name cm.source c

let parents cm c =
  match member cm c with Some mb -> mb.parents | None -> []

let ancestors cm c =
  match member cm c with
  | Some mb -> List.map snd (Smap.bindings mb.closure)
  | None -> []

let is_a cm ~sub ~super =
  sub.construct_id = super.construct_id
  ||
  match member cm sub with
  | Some mb -> Smap.mem super.construct_id mb.closure
  | None -> false

let applicable cm c =
  match member cm c with Some mb -> mb.applicable | None -> []

let connector_for cm c predicate =
  List.find_opt (fun conn -> conn.conn_predicate = predicate) (applicable cm c)

let construct_of_instance cm inst =
  match instance_type cm.source.trim inst with
  | None -> None
  | Some type_id -> (
      match Hashtbl.find_opt cm.members type_id with
      | Some mb -> Some mb.self
      | None -> None)

type range_error =
  | Literal_expected of string
  | Resource_expected of string
  | Dangling of string
  | Outside_model of string
  | Wrong_construct of string * construct

let check_range cm conn value =
  match (conn.conn_range.kind, value) with
  | Literal_construct, Triple.Literal _ -> Ok ()
  | Literal_construct, Triple.Resource r -> Error (Literal_expected r)
  | (Construct | Mark_construct), Triple.Literal l -> Error (Resource_expected l)
  | (Construct | Mark_construct), Triple.Resource r -> (
      match instance_type cm.source.trim r with
      | None -> Error (Dangling r)
      | Some type_id -> (
          match Hashtbl.find_opt cm.members type_id with
          | None -> Error (Outside_model r)
          | Some mb ->
              if is_a cm ~sub:mb.self ~super:conn.conn_range then Ok ()
              else Error (Wrong_construct (r, mb.self))))

(* ------------------------------------------------------------ spelling *)

let kind_name = function
  | Construct -> "construct"
  | Literal_construct -> "literal"
  | Mark_construct -> "mark"

let card_to_string { min_card; max_card } =
  Printf.sprintf "%d..%s" min_card
    (match max_card with Some n -> string_of_int n | None -> "*")
