let escape = Node.escape
let xml_decl = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"

let add_open_tag buf (e : Node.element) ~self_closing =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape v);
      Buffer.add_char buf '"')
    e.attrs;
  Buffer.add_string buf (if self_closing then "/>" else ">")

let rec add_compact buf = function
  | Node.Text s -> Buffer.add_string buf (escape s)
  | Node.Cdata s ->
      Buffer.add_string buf "<![CDATA[";
      Buffer.add_string buf s;
      Buffer.add_string buf "]]>"
  | Node.Comment s ->
      Buffer.add_string buf "<!--";
      Buffer.add_string buf s;
      Buffer.add_string buf "-->"
  | Node.Pi (t, c) ->
      Buffer.add_string buf "<?";
      Buffer.add_string buf t;
      Buffer.add_char buf ' ';
      Buffer.add_string buf c;
      Buffer.add_string buf "?>"
  | Node.Element e ->
      if e.children = [] then add_open_tag buf e ~self_closing:true
      else begin
        add_open_tag buf e ~self_closing:false;
        List.iter (add_compact buf) e.children;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.name;
        Buffer.add_char buf '>'
      end

let to_string ?(decl = false) node =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf xml_decl;
  add_compact buf node;
  Buffer.contents buf

(* Mixed content (any text or CDATA child) must be printed compactly:
   breaking the line inside it would add whitespace to the text itself. *)
let has_text_child (e : Node.element) =
  List.exists
    (function Node.Text _ | Node.Cdata _ -> true | _ -> false)
    e.children

let to_string_pretty ?(decl = false) ?(indent = 2) node =
  let buf = Buffer.create 256 in
  if decl then begin
    Buffer.add_string buf xml_decl;
    Buffer.add_char buf '\n'
  end;
  let pad level =
    for _ = 1 to level * indent do
      Buffer.add_char buf ' '
    done
  in
  let rec go level node =
    pad level;
    match node with
    | Node.Element e when e.children <> [] && not (has_text_child e) ->
        add_open_tag buf e ~self_closing:false;
        Buffer.add_char buf '\n';
        List.iter
          (fun c -> if not (Node.is_whitespace c) then go (level + 1) c)
          e.children;
        pad level;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.name;
        Buffer.add_char buf '>';
        Buffer.add_char buf '\n'
    | other ->
        add_compact buf other;
        Buffer.add_char buf '\n'
  in
  go 0 node;
  Buffer.contents buf

let to_file ?(pretty = true) path node =
  let contents =
    if pretty then to_string_pretty ~decl:true node
    else to_string ~decl:true node
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.flush oc)
