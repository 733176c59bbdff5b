type t =
  | Element of element
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of string * string

and element = {
  name : string;
  attrs : (string * string) list;
  children : t list;
}

let element ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s
let cdata s = Cdata s
let comment s = Comment s

let name = function Element e -> Some e.name | _ -> None

let attr key = function
  | Element e -> List.assoc_opt key e.attrs
  | Text _ | Cdata _ | Comment _ | Pi _ -> None

let attr_exn key node =
  match attr key node with Some v -> v | None -> raise Not_found

let children = function
  | Element e -> e.children
  | Text _ | Cdata _ | Comment _ | Pi _ -> []

let child_elements node =
  List.filter_map
    (function Element e -> Some e | _ -> None)
    (children node)

let find_child child_name node =
  List.find_opt
    (function Element e -> String.equal e.name child_name | _ -> false)
    (children node)

let find_children child_name node =
  List.filter
    (function Element e -> String.equal e.name child_name | _ -> false)
    (children node)

let rec text_content = function
  | Text s | Cdata s -> s
  | Comment _ | Pi _ -> ""
  | Element e -> String.concat "" (List.map text_content e.children)

let is_element = function Element _ -> true | _ -> false

let xml_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_whitespace = function
  | Text s -> String.for_all xml_space s
  | _ -> false

let rec fold f acc node =
  let acc = f acc node in
  List.fold_left (fold f) acc (children node)

let iter f node = fold (fun () n -> f n) () node
let descendants node = List.rev (fold (fun acc n -> n :: acc) [] node)

let descendant_elements node =
  List.rev
    (fold (fun acc n -> match n with Element e -> e :: acc | _ -> acc) [] node)

let size node = fold (fun n _ -> n + 1) 0 node

let rec depth = function
  | Text _ | Cdata _ | Comment _ | Pi _ -> 1
  | Element e -> 1 + List.fold_left (fun d c -> max d (depth c)) 0 e.children

let map_children f = function
  | Element e -> Element { e with children = f e.children }
  | other -> other

let set_attr key value = function
  | Element e ->
      Element { e with attrs = (key, value) :: List.remove_assoc key e.attrs }
  | other -> other

let rec strip_whitespace node =
  match node with
  | Element e ->
      let keep c = not (is_whitespace c) in
      let children = List.filter keep e.children in
      Element { e with children = List.map strip_whitespace children }
  | other -> other

let rec normalize node =
  match node with
  | Element e ->
      let rec merge = function
        | Text a :: Text b :: rest -> merge (Text (a ^ b) :: rest)
        | Text "" :: rest -> merge rest
        | child :: rest -> normalize child :: merge rest
        | [] -> []
      in
      Element { e with children = merge e.children }
  | other -> other

let sorted_attrs attrs =
  List.sort (fun (a, _) (b, _) -> String.compare a b) attrs

let rec equal a b =
  match (a, b) with
  | Text x, Text y | Cdata x, Cdata y | Comment x, Comment y ->
      String.equal x y
  | Pi (t1, c1), Pi (t2, c2) -> String.equal t1 t2 && String.equal c1 c2
  | Element x, Element y ->
      String.equal x.name y.name
      && sorted_attrs x.attrs = sorted_attrs y.attrs
      && List.length x.children = List.length y.children
      && List.for_all2 equal x.children y.children
  | (Element _ | Text _ | Cdata _ | Comment _ | Pi _), _ -> false

let needs_escape = function '<' | '>' | '&' | '"' -> true | _ -> false

(* Most values need no escaping; those come back as they are. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    String.iter
      (function
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '&' -> Buffer.add_string buf "&amp;"
        | '"' -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let rec pp ppf = function
  | Text s -> Format.pp_print_string ppf (escape s)
  | Cdata s -> Format.fprintf ppf "<![CDATA[%s]]>" s
  | Comment s -> Format.fprintf ppf "<!--%s-->" s
  | Pi (t, c) -> Format.fprintf ppf "<?%s %s?>" t c
  | Element e ->
      Format.fprintf ppf "<%s" e.name;
      List.iter
        (fun (k, v) -> Format.fprintf ppf " %s=\"%s\"" k (escape v))
        e.attrs;
      if e.children = [] then Format.pp_print_string ppf "/>"
      else begin
        Format.pp_print_char ppf '>';
        List.iter (pp ppf) e.children;
        Format.fprintf ppf "</%s>" e.name
      end
