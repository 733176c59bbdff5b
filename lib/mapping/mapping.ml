module Model = Si_metamodel.Model
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

type rule = {
  from_construct : string;
  to_construct : string;
  property_map : (string * string) list;
}

type t = { source : Model.t; target : Model.t; rule_list : rule list }

let create ~source ~target = { source; target; rule_list = [] }
let rules t = List.rev t.rule_list

let add_rule t rule =
  match
    ( Model.find_construct t.source rule.from_construct,
      Model.find_construct t.target rule.to_construct )
  with
  | None, _ ->
      Error
        (Printf.sprintf "no construct %S in source model %s"
           rule.from_construct (Model.name t.source))
  | _, None ->
      Error
        (Printf.sprintf "no construct %S in target model %s" rule.to_construct
           (Model.name t.target))
  | Some _, Some target_construct ->
      let target = Model.compile t.target in
      let bad_predicate =
        List.find_opt
          (fun (_, target_pred) ->
            Model.connector_for target target_construct target_pred = None)
          rule.property_map
      in
      (match bad_predicate with
      | Some (_, p) ->
          Error
            (Printf.sprintf "target construct %S has no connector %S"
               rule.to_construct p)
      | None -> Ok { t with rule_list = rule :: t.rule_list })

let add_rule_exn t rule =
  match add_rule t rule with Ok t -> t | Error msg -> invalid_arg msg

type report = {
  instances_mapped : int;
  properties_mapped : int;
  properties_dropped : int;
  dangling_rewrites : int;
  correspondence : (string * string) list;
}

let apply t =
  let rule_list = rules t in
  (* Pass 1: create a target instance per mapped source instance. *)
  let table = Hashtbl.create 64 in
  let pairs =
    List.concat_map
      (fun rule ->
        match
          ( Model.find_construct t.source rule.from_construct,
            Model.find_construct t.target rule.to_construct )
        with
        | Some from_c, Some to_c ->
            List.map
              (fun src ->
                let dst = Model.new_instance t.target to_c () in
                Hashtbl.replace table src dst;
                Model.conform t.target ~instance:dst ~to_:src;
                (rule, from_c, src, dst))
              (Model.instances_of t.source from_c)
        | _ -> [])
      rule_list
  in
  (* Pass 2: map properties, rewriting resource references through the
     correspondence. *)
  let mapped = ref 0 and dropped = ref 0 and dangling = ref 0 in
  List.iter
    (fun (rule, _from_c, src, dst) ->
      List.iter
        (fun (pred, obj) ->
          match List.assoc_opt pred rule.property_map with
          | None -> incr dropped
          | Some target_pred -> (
              match obj with
              | Triple.Literal _ ->
                  Model.add_property t.target dst target_pred obj;
                  incr mapped
              | Triple.Resource r -> (
                  match Hashtbl.find_opt table r with
                  | Some r' ->
                      Model.add_property t.target dst target_pred
                        (Triple.resource r');
                      incr mapped
                  | None -> incr dangling)))
        (Model.properties t.source src))
    pairs;
  {
    instances_mapped = List.length pairs;
    properties_mapped = !mapped;
    properties_dropped = !dropped;
    dangling_rewrites = !dangling;
    correspondence =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []);
  }

let schema_to_model ~source ~instance_construct ~name_predicate ~target =
  match Model.find_construct source instance_construct with
  | None ->
      Error
        (Printf.sprintf "no construct %S in source model" instance_construct)
  | Some c ->
      let constructs =
        List.filter_map
          (fun inst ->
            match
              Trim.literal_of (Model.trim source) ~subject:inst
                ~predicate:name_predicate
            with
            | Some name ->
                let created = Model.construct target name in
                Model.conform target
                  ~instance:created.Model.construct_id ~to_:inst;
                Some created
            | None -> None)
          (Model.instances_of source c)
      in
      Ok constructs

let pp_report ppf r =
  Format.fprintf ppf
    "mapped %d instance(s); %d propertie(s) mapped, %d dropped, %d dangling"
    r.instances_mapped r.properties_mapped r.properties_dropped
    r.dangling_rewrites
