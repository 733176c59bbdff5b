module Xml = Si_xmlk

type t = {
  mark_id : string;
  mark_type : string;
  fields : (string * string) list;
  excerpt : string;
}

let make ~id ~mark_type ~fields ?(excerpt = "") () =
  { mark_id = id; mark_type; fields; excerpt }

let field t name = List.assoc_opt name t.fields

let field_exn t name =
  match field t name with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Mark %s has no field %S" t.mark_id name)

(* The base source a mark lives on. Every standard module addresses its
   document through a "fileName" field; marks without one are grouped per
   type. Resilience (breakers, health reports) keys on this. *)
let source t =
  match field t "fileName" with
  | Some f -> f
  | None -> "<" ^ t.mark_type ^ ">"

let equal a b =
  String.equal a.mark_id b.mark_id
  && String.equal a.mark_type b.mark_type
  && List.sort compare a.fields = List.sort compare b.fields
  && String.equal a.excerpt b.excerpt

let pp ppf t =
  Format.fprintf ppf "<mark %s : %s%s>" t.mark_id t.mark_type
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf " %s=%S" k v) t.fields))

type resolution = {
  res_excerpt : string;
  res_context : string;
  res_display : string;
  res_source : string;
}

type behaviour = Navigate | Extract_content | Display_in_place

let apply_behaviour behaviour res =
  match behaviour with
  | Navigate -> res.res_context
  | Extract_content -> res.res_excerpt
  | Display_in_place -> res.res_display

let to_xml t =
  Xml.Node.element "mark"
    ~attrs:[ ("id", t.mark_id); ("type", t.mark_type) ]
    (List.map
       (fun (k, v) ->
         Xml.Node.element "field" ~attrs:[ ("name", k) ] [ Xml.Node.text v ])
       t.fields
    @
    if t.excerpt = "" then []
    else [ Xml.Node.element "excerpt" [ Xml.Node.text t.excerpt ] ])

let of_xml node =
  match (node, Xml.Node.attr "id" node, Xml.Node.attr "type" node) with
  | Xml.Node.Element { name = "mark"; _ }, Some id, Some mark_type ->
      let fields =
        Xml.Node.find_children "field" node
        |> List.filter_map (fun f ->
               Option.map
                 (fun name -> (name, Xml.Node.text_content f))
                 (Xml.Node.attr "name" f))
      in
      let excerpt =
        match Xml.Node.find_child "excerpt" node with
        | Some e -> Xml.Node.text_content e
        | None -> ""
      in
      Ok (make ~id ~mark_type ~fields ~excerpt ())
  | Xml.Node.Element { name = "mark"; _ }, _, _ ->
      Error "mark missing id or type attribute"
  | _ -> Error "expected a <mark> element"
