module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

type violation = {
  resource : string;
  predicate : string option;
  problem : string;
}

type report = { checked : int; violations : violation list }

let violation ?predicate resource problem = { resource; predicate; problem }

let range_problem cm conn error =
  let range = Model.name_of cm conn.Model.conn_range in
  match error with
  | Model.Literal_expected r ->
      Printf.sprintf "expected a literal %s, found resource <%s>" range r
  | Model.Resource_expected l ->
      Printf.sprintf "expected a %s resource, found literal %S" range l
  | Model.Dangling r -> Printf.sprintf "dangling reference to <%s>" r
  | Model.Outside_model r -> Printf.sprintf "<%s> is typed outside this model" r
  | Model.Wrong_construct (r, actual) ->
      Printf.sprintf "expected a %s, found a %s (<%s>)" range
        (Model.name_of cm actual) r

(* Violations of one instance: unknown properties, range mismatches, and
   cardinality breaches. *)
let check_instance cm inst =
  match Model.construct_of_instance cm inst with
  | None ->
      [ violation inst "instance is not typed by a construct of this model" ]
  | Some c ->
      let applicable = Model.applicable cm c in
      let plain_props =
        Trim.select ~subject:inst (Model.trim (Model.source cm))
        |> List.filter (fun (tr : Triple.t) ->
               not (Vocab.is_reserved_predicate tr.predicate))
      in
      (* Unknown properties + range checks. *)
      let value_violations =
        List.filter_map
          (fun (tr : Triple.t) ->
            match Model.connector_for cm c tr.predicate with
            | None ->
                Some
                  (violation ~predicate:tr.predicate inst
                     (Printf.sprintf
                        "no connector %S on construct %s (or its supertypes)"
                        tr.predicate (Model.name_of cm c)))
            | Some conn -> (
                match Model.check_range cm conn tr.object_ with
                | Ok () -> None
                | Error e ->
                    Some
                      (violation ~predicate:tr.predicate inst
                         (range_problem cm conn e))))
          plain_props
      in
      (* Cardinalities for every applicable connector. *)
      let cardinality_violations =
        List.concat_map
          (fun conn ->
            let pred = conn.Model.conn_predicate in
            let count =
              List.length
                (List.filter
                   (fun (tr : Triple.t) -> tr.predicate = pred)
                   plain_props)
            in
            let { Model.min_card; max_card } = conn.Model.card in
            (if count < min_card then
               [
                 violation ~predicate:pred inst
                   (Printf.sprintf "%d value(s), at least %d required" count
                      min_card);
               ]
             else [])
            @
            match max_card with
            | Some n when count > n ->
                [
                  violation ~predicate:pred inst
                    (Printf.sprintf "%d value(s), at most %d allowed" count n);
                ]
            | Some _ | None -> [])
          applicable
      in
      value_violations @ cardinality_violations

let check m =
  let cm = Model.compile m in
  let instances =
    List.concat_map (Model.instances_of m) (Model.constructs cm)
    |> List.sort_uniq String.compare
  in
  {
    checked = List.length instances;
    violations = List.concat_map (check_instance cm) instances;
  }

let is_valid m = (check m).violations = []

let pp_violation ppf v =
  match v.predicate with
  | Some p -> Format.fprintf ppf "<%s>.%s: %s" v.resource p v.problem
  | None -> Format.fprintf ppf "<%s>: %s" v.resource v.problem

let report_to_string { checked; violations } =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%d instance(s) checked, %d violation(s)\n" checked
       (List.length violations));
  List.iter
    (fun v ->
      Buffer.add_string buf (Format.asprintf "  %a\n" pp_violation v))
    violations;
  Buffer.contents buf
