type error = { line : int; column : int; message : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "XML parse error at %d:%d: %s" e.line e.column e.message

(* The cursor tracks absolute offset; line/column are recomputed only when an
   error is raised, so the happy path stays allocation-free. *)
type cursor = { input : string; mutable pos : int }

let position_of_offset input offset =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to min offset (String.length input) - 1 do
    if input.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, offset - !bol + 1)

let fail cur message =
  let line, column = position_of_offset cur.input cur.pos in
  raise (Parse_error { line; column; message })

let eof cur = cur.pos >= String.length cur.input
let peek cur = if eof cur then '\000' else cur.input.[cur.pos]

let peek2 cur =
  if cur.pos + 1 >= String.length cur.input then '\000'
  else cur.input.[cur.pos + 1]

let advance cur = cur.pos <- cur.pos + 1

let expect cur c =
  if peek cur = c then advance cur
  else fail cur (Printf.sprintf "expected %C, found %C" c (peek cur))

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space cur =
  while (not (eof cur)) && is_space (peek cur) do
    advance cur
  done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c
  || match c with '0' .. '9' | '-' | '.' -> true | _ -> false

let read_name cur =
  if not (is_name_start (peek cur)) then fail cur "expected a name";
  let start = cur.pos in
  while (not (eof cur)) && is_name_char (peek cur) do
    advance cur
  done;
  String.sub cur.input start (cur.pos - start)

(* [stop] occurs in [input] at [i]; the caller guarantees it fits. *)
let is_at input i stop =
  let rec go k =
    k = String.length stop
    || String.unsafe_get input (i + k) = String.unsafe_get stop k
       && go (k + 1)
  in
  go 0

(* Scans forward to [stop] (a literal substring), returning the text before
   it and leaving the cursor just past it. *)
let read_until cur stop =
  let len = String.length stop in
  let limit = String.length cur.input - len in
  let rec scan i =
    if i > limit then fail cur (Printf.sprintf "unterminated, expected %S" stop)
    else if is_at cur.input i stop then i
    else scan (i + 1)
  in
  let at = scan cur.pos in
  let contents = String.sub cur.input cur.pos (at - cur.pos) in
  cur.pos <- at + len;
  contents

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* XML 1.0's [Char] production: what a character reference may name. *)
let is_xml_char code =
  code = 0x9 || code = 0xA || code = 0xD
  || (code >= 0x20 && code <= 0xD7FF)
  || (code >= 0xE000 && code <= 0xFFFD)
  || (code >= 0x10000 && code <= 0x10FFFF)

(* Cursor is just past '&'. *)
let read_entity cur buf =
  let body = read_until cur ";" in
  match body with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "apos" -> Buffer.add_char buf '\''
  | "quot" -> Buffer.add_char buf '"'
  | _ ->
      let parse_code s base = int_of_string_opt (base ^ s) in
      let code =
        if String.length body > 1 && body.[0] = '#' then
          if body.[1] = 'x' || body.[1] = 'X' then
            parse_code (String.sub body 2 (String.length body - 2)) "0x"
          else parse_code (String.sub body 1 (String.length body - 1)) ""
        else None
      in
      (match code with
      | Some c when is_xml_char c -> add_utf8 buf c
      | Some c when c >= 0 && c <= 0x10FFFF ->
          fail cur
            (Printf.sprintf "&%s; does not name an XML character" body)
      | Some _ | None -> fail cur (Printf.sprintf "unknown entity &%s;" body))

(* Text and attribute values are read a run at a time: the cursor scans to
   the next [stop] byte or entity, and a value with no entity in it is one
   [String.sub] of the input. Only a value with an entity goes through a
   buffer, which takes each run between entities as one substring. *)
let scan_to cur stop =
  let input = cur.input in
  let n = String.length input in
  let i = ref cur.pos in
  while
    !i < n
    &&
    let c = String.unsafe_get input !i in
    c <> stop && c <> '&'
  do
    incr i
  done;
  cur.pos <- !i

(* Reads up to the first [stop] byte (or the end of input), decoding
   entities on the way; the cursor is left on the [stop]. *)
let read_decoded cur stop =
  let start = cur.pos in
  scan_to cur stop;
  if peek cur <> '&' then String.sub cur.input start (cur.pos - start)
  else begin
    let buf = Buffer.create (cur.pos - start + 16) in
    Buffer.add_substring buf cur.input start (cur.pos - start);
    while peek cur = '&' do
      advance cur;
      read_entity cur buf;
      let run = cur.pos in
      scan_to cur stop;
      Buffer.add_substring buf cur.input run (cur.pos - run)
    done;
    Buffer.contents buf
  end

let read_text cur = read_decoded cur '<'

let read_quoted cur =
  let quote = peek cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected a quoted value";
  advance cur;
  let value = read_decoded cur quote in
  if eof cur then fail cur "unterminated attribute value";
  advance cur;
  value

let read_attrs cur =
  let rec loop acc =
    skip_space cur;
    if eof cur then fail cur "unterminated start tag"
    else
      match peek cur with
      | '>' | '/' | '?' -> List.rev acc
      | _ ->
          let key = read_name cur in
          skip_space cur;
          expect cur '=';
          skip_space cur;
          let value = read_quoted cur in
          loop ((key, value) :: acc)
  in
  loop []

(* Cursor is just past "<!": comment or doctype or CDATA. *)
let read_bang cur =
  if peek cur = '-' && peek2 cur = '-' then begin
    advance cur;
    advance cur;
    Some (Node.Comment (read_until cur "-->"))
  end
  else if
    cur.pos + 7 <= String.length cur.input && is_at cur.input cur.pos "[CDATA["
  then begin
    cur.pos <- cur.pos + 7;
    Some (Node.Cdata (read_until cur "]]>"))
  end
  else begin
    (* DOCTYPE (or other declaration): skip to the matching '>', allowing one
       level of bracketed internal subset. *)
    let rec skip depth =
      if eof cur then fail cur "unterminated <! declaration"
      else
        match peek cur with
        | '[' ->
            advance cur;
            skip (depth + 1)
        | ']' ->
            advance cur;
            skip (depth - 1)
        | '>' when depth = 0 -> advance cur
        | _ ->
            advance cur;
            skip depth
    in
    skip 0;
    None
  end

(* Cursor is just past "<?". *)
let read_pi cur =
  let target = read_name cur in
  skip_space cur;
  let contents = read_until cur "?>" in
  Node.Pi (target, contents)

let rec read_element cur =
  (* Cursor is just past '<' at a name-start character. *)
  let name = read_name cur in
  let attrs = read_attrs cur in
  if peek cur = '/' then begin
    advance cur;
    expect cur '>';
    Node.Element { name; attrs; children = [] }
  end
  else begin
    expect cur '>';
    let children = read_children cur name in
    Node.Element { name; attrs; children }
  end

and read_children cur parent =
  let rec loop acc =
    if eof cur then fail cur (Printf.sprintf "unterminated element <%s>" parent)
    else if peek cur = '<' then
      if peek2 cur = '/' then begin
        advance cur;
        advance cur;
        let closing = read_name cur in
        skip_space cur;
        expect cur '>';
        if not (String.equal closing parent) then
          fail cur
            (Printf.sprintf "mismatched tag: <%s> closed by </%s>" parent
               closing);
        List.rev acc
      end
      else loop_node acc
    else
      let s = read_text cur in
      loop (if s = "" then acc else Node.Text s :: acc)
  and loop_node acc =
    advance cur;
    match peek cur with
    | '!' ->
        advance cur;
        (match read_bang cur with
        | Some node -> loop (node :: acc)
        | None -> loop acc)
    | '?' ->
        advance cur;
        loop (read_pi cur :: acc)
    | _ -> loop (read_element cur :: acc)
  in
  loop []

let read_misc cur =
  (* Prolog / epilog content: whitespace, comments, PIs, doctype. Returns the
     nodes it kept (comments and PIs). *)
  let rec loop acc =
    skip_space cur;
    if (not (eof cur)) && peek cur = '<' then
      match peek2 cur with
      | '!' ->
          advance cur;
          advance cur;
          (match read_bang cur with
          | Some node -> loop (node :: acc)
          | None -> loop acc)
      | '?' ->
          advance cur;
          advance cur;
          loop (read_pi cur :: acc)
      | _ -> List.rev acc
    else List.rev acc
  in
  loop []

let node_exn input =
  let cur = { input; pos = 0 } in
  let _prolog = read_misc cur in
  if eof cur then fail cur "no root element";
  expect cur '<';
  let root = read_element cur in
  let _epilog = read_misc cur in
  skip_space cur;
  if not (eof cur) then fail cur "content after root element";
  root

let node input =
  match node_exn input with
  | root -> Ok root
  | exception Parse_error e -> Error e

let file path =
  match Si_io.Io.read_file path with
  | Ok contents -> node contents
  | Error msg -> Error { line = 0; column = 0; message = msg }

let fragment input =
  let cur = { input; pos = 0 } in
  let rec loop acc =
    if eof cur then List.rev acc
    else if peek cur = '<' then
      match peek2 cur with
      | '!' ->
          advance cur;
          advance cur;
          (match read_bang cur with
          | Some n -> loop (n :: acc)
          | None -> loop acc)
      | '?' ->
          advance cur;
          advance cur;
          loop (read_pi cur :: acc)
      | '/' -> fail cur "unexpected closing tag"
      | _ ->
          advance cur;
          loop (read_element cur :: acc)
    else
      let s = read_text cur in
      loop (if s = "" then acc else Node.Text s :: acc)
  in
  match loop [] with
  | nodes -> Ok nodes
  | exception Parse_error e -> Error e
