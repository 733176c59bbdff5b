module Node = Si_xmlk.Node

let void_tags =
  [ "area"; "base"; "br"; "col"; "embed"; "hr"; "img"; "input"; "link";
    "meta"; "param"; "source"; "track"; "wbr" ]

let is_void tag = List.mem tag void_tags
let raw_text_tags = [ "script"; "style" ]

(* Tags whose open tag implicitly closes a predecessor: seeing [tag] closes
   any open element listed against it. *)
let auto_close = function
  | "p" -> [ "p" ]
  | "li" -> [ "li" ]
  | "tr" -> [ "tr"; "td"; "th" ]
  | "td" | "th" -> [ "td"; "th" ]
  | "option" -> [ "option" ]
  | "dt" | "dd" -> [ "dt"; "dd" ]
  | _ -> []

(* ------------------------------------------------------------ tokenizer *)

type token =
  | Open of string * (string * string) list * bool (* name, attrs, self-closed *)
  | Close of string
  | Text of string
  | Comment of string

let decode_entities s =
  if not (String.contains s '&') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        match String.index_from_opt s !i ';' with
        | Some j when j - !i <= 10 -> (
            let body = String.sub s (!i + 1) (j - !i - 1) in
            let replacement =
              match body with
              | "lt" -> Some "<"
              | "gt" -> Some ">"
              | "amp" -> Some "&"
              | "quot" -> Some "\""
              | "apos" -> Some "'"
              | "nbsp" -> Some " "
              | _ ->
                  if String.length body > 1 && body.[0] = '#' then
                    let code =
                      if body.[1] = 'x' || body.[1] = 'X' then
                        int_of_string_opt
                          ("0x" ^ String.sub body 2 (String.length body - 2))
                      else
                        int_of_string_opt
                          (String.sub body 1 (String.length body - 1))
                    in
                    match code with
                    | Some c when c > 0 && c < 128 ->
                        Some (String.make 1 (Char.chr c))
                    | Some _ -> Some "?"  (* non-ASCII: placeholder *)
                    | None -> None
                  else None
            in
            match replacement with
            | Some r ->
                Buffer.add_string buf r;
                i := j + 1
            | None ->
                Buffer.add_char buf '&';
                incr i)
        | _ ->
            Buffer.add_char buf '&';
            incr i
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let tokenize input =
  let n = String.length input in
  let pos = ref 0 in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let starts_with at prefix =
    at + String.length prefix <= n
    && String.lowercase_ascii (String.sub input at (String.length prefix))
       = String.lowercase_ascii prefix
  in
  let find_sub from sub =
    let sl = String.length sub in
    let rec scan i =
      if i + sl > n then None
      else if String.lowercase_ascii (String.sub input i sl)
              = String.lowercase_ascii sub
      then Some i
      else scan (i + 1)
    in
    scan from
  in
  let read_name () =
    let start = !pos in
    while
      !pos < n
      && match input.[!pos] with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | ':' -> true
         | _ -> false
    do
      incr pos
    done;
    String.lowercase_ascii (String.sub input start (!pos - start))
  in
  let skip_spaces () =
    while !pos < n && is_space input.[!pos] do
      incr pos
    done
  in
  let read_attrs () =
    let attrs = ref [] in
    let continue_ = ref true in
    while !continue_ do
      skip_spaces ();
      if !pos >= n || input.[!pos] = '>'
         || (input.[!pos] = '/' && !pos + 1 < n && input.[!pos + 1] = '>')
      then continue_ := false
      else begin
        let name = read_name () in
        if name = "" then (* junk character; skip to avoid looping *) incr pos
        else begin
          skip_spaces ();
          if !pos < n && input.[!pos] = '=' then begin
            incr pos;
            skip_spaces ();
            let value =
              if !pos < n && (input.[!pos] = '"' || input.[!pos] = '\'') then begin
                let quote = input.[!pos] in
                incr pos;
                let start = !pos in
                while !pos < n && input.[!pos] <> quote do
                  incr pos
                done;
                let v = String.sub input start (!pos - start) in
                if !pos < n then incr pos;
                v
              end
              else begin
                let start = !pos in
                while
                  !pos < n && (not (is_space input.[!pos]))
                  && input.[!pos] <> '>'
                do
                  incr pos
                done;
                String.sub input start (!pos - start)
              end
            in
            attrs := (name, decode_entities value) :: !attrs
          end
          else attrs := (name, "") :: !attrs
        end
      end
    done;
    List.rev !attrs
  in
  while !pos < n do
    if input.[!pos] = '<' then begin
      if starts_with !pos "<!--" then begin
        match find_sub (!pos + 4) "-->" with
        | Some close ->
            push (Comment (String.sub input (!pos + 4) (close - !pos - 4)));
            pos := close + 3
        | None ->
            push (Comment (String.sub input (!pos + 4) (n - !pos - 4)));
            pos := n
      end
      else if starts_with !pos "<!" || starts_with !pos "<?" then begin
        (* doctype or PI: skip to '>' *)
        (match String.index_from_opt input !pos '>' with
        | Some close -> pos := close + 1
        | None -> pos := n)
      end
      else if starts_with !pos "</" then begin
        pos := !pos + 2;
        let name = read_name () in
        (match String.index_from_opt input !pos '>' with
        | Some close -> pos := close + 1
        | None -> pos := n);
        if name <> "" then push (Close name)
      end
      else if
        !pos + 1 < n
        && match input.[!pos + 1] with
           | 'a' .. 'z' | 'A' .. 'Z' -> true
           | _ -> false
      then begin
        incr pos;
        let name = read_name () in
        let attrs = read_attrs () in
        let self_closed =
          !pos + 1 < n && input.[!pos] = '/' && input.[!pos + 1] = '>'
        in
        (match String.index_from_opt input !pos '>' with
        | Some close -> pos := close + 1
        | None -> pos := n);
        push (Open (name, attrs, self_closed));
        (* Raw-text elements swallow everything until their close tag. *)
        if List.mem name raw_text_tags && not self_closed then begin
          let close_tag = "</" ^ name in
          match find_sub !pos close_tag with
          | Some at ->
              if at > !pos then
                push (Text (String.sub input !pos (at - !pos)));
              pos := at + String.length close_tag;
              (match String.index_from_opt input !pos '>' with
              | Some close -> pos := close + 1
              | None -> pos := n);
              push (Close name)
          | None ->
              if n > !pos then push (Text (String.sub input !pos (n - !pos)));
              pos := n;
              push (Close name)
        end
      end
      else begin
        (* A lone '<' that opens nothing: literal text. *)
        push (Text "<");
        incr pos
      end
    end
    else begin
      let start = !pos in
      while !pos < n && input.[!pos] <> '<' do
        incr pos
      done;
      push (Text (decode_entities (String.sub input start (!pos - start))))
    end
  done;
  List.rev !tokens

(* --------------------------------------------------------- tree builder *)

type frame = {
  tag : string;
  attrs : (string * string) list;
  mutable children : Node.t list;  (* reverse order *)
}

let build tokens =
  let stack : frame list ref = ref [] in
  let roots : Node.t list ref = ref [] in
  let emit node =
    match !stack with
    | [] -> roots := node :: !roots
    | top :: _ -> top.children <- node :: top.children
  in
  let close_frame () =
    match !stack with
    | [] -> ()
    | frame :: rest ->
        stack := rest;
        emit
          (Node.Element
             {
               name = frame.tag;
               attrs = frame.attrs;
               children = List.rev frame.children;
             })
  in
  let rec close_until name =
    match !stack with
    | [] -> ()
    | frame :: _ ->
        if String.equal frame.tag name then close_frame ()
        else begin
          close_frame ();
          close_until name
        end
  in
  let open_implies_close name =
    (* Keep popping: a new <tr> closes an open <td> and then the open
       <tr> itself. *)
    let closeable = auto_close name in
    let rec pop () =
      match !stack with
      | frame :: _ when List.mem frame.tag closeable ->
          close_frame ();
          pop ()
      | _ -> ()
    in
    pop ()
  in
  List.iter
    (fun token ->
      match token with
      | Text "" -> ()
      | Text s -> emit (Node.Text s)
      | Comment s -> emit (Node.Comment s)
      | Open (name, attrs, self_closed) ->
          open_implies_close name;
          if self_closed || is_void name then
            emit (Node.Element { name; attrs; children = [] })
          else stack := { tag = name; attrs; children = [] } :: !stack
      | Close name ->
          (* Ignore a close with no matching open anywhere on the stack. *)
          if List.exists (fun f -> String.equal f.tag name) !stack then
            close_until name)
    tokens;
  while !stack <> [] do
    close_frame ()
  done;
  List.rev !roots

let parse_forest input = build (tokenize input)

let parse input =
  let significant = function
    | Node.Element _ -> true
    | Node.Text s -> not (String.for_all is_space s)
    | Node.Cdata _ | Node.Comment _ | Node.Pi _ -> false
  in
  match parse_forest input with
  | [ (Node.Element _ as root) ] -> root
  | forest -> (
      match List.filter significant forest with
      | [ (Node.Element _ as root) ] -> root
      | _ -> Node.element "html" forest)

let from_file path = Result.map parse (Si_io.Io.read_file path)

(* ------------------------------------------------------------ accessors *)

let element_by_id root id =
  let found = ref None in
  Node.iter
    (fun n ->
      if !found = None && Node.attr "id" n = Some id then found := Some n)
    root;
  !found

let anchors root =
  List.rev
    (Node.fold
       (fun acc n ->
         match Node.attr "id" n with
         | Some id -> (id, n) :: acc
         | None -> (
             match (Node.name n, Node.attr "name" n) with
             | Some "a", Some name -> (name, n) :: acc
             | _ -> acc))
       [] root)

let elements_by_tag root tag =
  List.filter
    (fun n -> Node.name n = Some tag)
    (Node.descendants root)

let block_tags =
  [ "p"; "div"; "li"; "tr"; "table"; "ul"; "ol"; "h1"; "h2"; "h3"; "h4";
    "h5"; "h6"; "blockquote"; "pre"; "section"; "article"; "header";
    "footer"; "dt"; "dd"; "body"; "html" ]

let to_text root =
  let buf = Buffer.create 256 in
  let rec go node =
    match node with
    | Node.Text s | Node.Cdata s -> Buffer.add_string buf s
    | Node.Comment _ | Node.Pi _ -> ()
    | Node.Element { name = "script" | "style"; _ } -> ()
    | Node.Element { name = "br"; _ } -> Buffer.add_char buf '\n'
    | Node.Element { name; children; _ } ->
        let block = List.mem name block_tags in
        if block then Buffer.add_char buf '\n';
        List.iter go children;
        if block then Buffer.add_char buf '\n'
  in
  go root;
  (* Collapse runs of spaces/tabs and blank lines. *)
  let raw = Buffer.contents buf in
  let out = Buffer.create (String.length raw) in
  let pending_space = ref false and pending_newline = ref 0 in
  let flush_pending () =
    if !pending_newline > 0 then begin
      if Buffer.length out > 0 then Buffer.add_char out '\n';
      pending_newline := 0;
      pending_space := false
    end
    else if !pending_space then begin
      if Buffer.length out > 0 then Buffer.add_char out ' ';
      pending_space := false
    end
  in
  String.iter
    (fun c ->
      match c with
      | '\n' -> incr pending_newline
      | ' ' | '\t' | '\r' -> pending_space := true
      | c ->
          flush_pending ();
          Buffer.add_char out c)
    raw;
  Buffer.contents out

let title root =
  match elements_by_tag root "title" with
  | [] -> None
  | t :: _ -> Some (String.trim (Node.text_content t))

type outline_entry = {
  level : int;
  heading : string;
  node : Node.t;
  children : outline_entry list;
}

let outline root =
  let headings =
    Node.descendants root
    |> List.filter_map (fun n ->
           match Node.name n with
           | Some ("h1" | "h2" | "h3" | "h4" | "h5" | "h6" as tag) ->
               Some
                 ( int_of_string (String.sub tag 1 1),
                   String.trim (Node.text_content n),
                   n )
           | _ -> None)
  in
  (* Fold the flat heading list into a forest: an entry adopts following
     entries of strictly deeper level. *)
  let rec build level items =
    match items with
    | [] -> ([], [])
    | (l, heading, node) :: rest when l >= level ->
        let children, after_children = build (l + 1) rest in
        let siblings, leftover = build level after_children in
        ({ level = l; heading; node; children } :: siblings, leftover)
    | items -> ([], items)
  in
  fst (build 1 headings)

let links root =
  elements_by_tag root "a"
  |> List.filter_map (fun a ->
         match Node.attr "href" a with
         | Some href -> Some (href, String.trim (Node.text_content a))
         | None -> None)
