module Xml = Si_xmlk

let rdf_namespace = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

let valid_element_name s =
  s <> ""
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' ->
             true
         | _ -> false)
       s

let to_xml trim =
  let triples = List.sort Triple.compare (Trim.to_list trim) in
  let bad =
    List.find_opt
      (fun (tr : Triple.t) -> not (valid_element_name tr.predicate))
      triples
  in
  match bad with
  | Some tr ->
      Error
        (Printf.sprintf
           "predicate %S is not a valid XML element name; cannot serialize \
            as RDF/XML"
           tr.predicate)
  | None ->
      (* Group consecutive runs of equal subjects (the list is sorted, so
         one linear pass suffices). *)
      let group triples =
        let rec go current acc grouped = function
          | [] ->
              List.rev
                (match current with
                | None -> grouped
                | Some s -> (s, List.rev acc) :: grouped)
          | (tr : Triple.t) :: rest -> (
              match current with
              | Some s when String.equal s tr.subject ->
                  go current (tr :: acc) grouped rest
              | Some s ->
                  go (Some tr.subject) [ tr ] ((s, List.rev acc) :: grouped)
                    rest
              | None -> go (Some tr.subject) [ tr ] grouped rest)
        in
        go None [] [] triples
      in
      let description (subject, props) =
        Xml.Node.element "rdf:Description"
          ~attrs:[ ("rdf:about", subject) ]
          (List.map
             (fun (tr : Triple.t) ->
               match tr.object_ with
               | Triple.Literal l ->
                   Xml.Node.element tr.predicate [ Xml.Node.text l ]
               | Triple.Resource r ->
                   Xml.Node.element tr.predicate
                     ~attrs:[ ("rdf:resource", r) ]
                     [])
             props)
      in
      Ok
        (Xml.Node.element "rdf:RDF"
           ~attrs:[ ("xmlns:rdf", rdf_namespace) ]
           (List.map description (group triples)))

let to_string trim =
  Result.map (Xml.Print.to_string_pretty ~decl:true) (to_xml trim)

let of_xml root =
  match root with
  | Xml.Node.Element { name = "rdf:RDF"; _ } ->
      let trim = Trim.create () in
      let load_description node =
        match Xml.Node.attr "rdf:about" node with
        | None -> Error "rdf:Description missing rdf:about"
        | Some subject ->
            let rec props = function
              | [] -> Ok ()
              | child :: rest -> (
                  match child with
                  | Xml.Node.Element { name = predicate; _ } -> (
                      match Xml.Node.attr "rdf:resource" child with
                      | Some r ->
                          ignore
                            (Trim.add trim
                               (Triple.make subject predicate
                                  (Triple.Resource r)));
                          props rest
                      | None ->
                          ignore
                            (Trim.add trim
                               (Triple.make subject predicate
                                  (Triple.Literal
                                     (Xml.Node.text_content child))));
                          props rest)
                  | Xml.Node.Text _ | Xml.Node.Cdata _ | Xml.Node.Comment _
                  | Xml.Node.Pi _ ->
                      props rest)
            in
            props (Xml.Node.children node)
      in
      let rec load = function
        | [] -> Ok trim
        | d :: rest -> (
            match load_description d with
            | Ok () -> load rest
            | Error _ as e -> e)
      in
      load (Xml.Node.find_children "rdf:Description" root)
  | _ -> Error "expected an <rdf:RDF> root element"

let of_string text =
  match Xml.Parse.node text with
  | Error e -> Error (Xml.Parse.error_to_string e)
  | Ok root -> of_xml (Xml.Node.strip_whitespace root)

let save trim path =
  match to_xml trim with
  | Error _ as e -> e
  | Ok node ->
      Xml.Print.to_file path node;
      Ok ()

let load path =
  match Xml.Parse.file path with
  | Error e -> Error (Xml.Parse.error_to_string e)
  | Ok root -> of_xml (Xml.Node.strip_whitespace root)
