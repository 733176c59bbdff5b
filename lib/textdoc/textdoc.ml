type span = { offset : int; length : int }
type position = { line : int; column : int }

type t = {
  contents : string;
  line_starts : int array;  (* offset of the first character of each line *)
}

let index_lines contents =
  let starts = ref [ 0 ] in
  String.iteri
    (fun i c -> if c = '\n' then starts := (i + 1) :: !starts)
    contents;
  Array.of_list (List.rev !starts)

let of_string contents = { contents; line_starts = index_lines contents }
let of_lines lines = of_string (String.concat "\n" lines)

let from_file path = Result.map of_string (Si_io.Io.read_file path)

let to_string doc = doc.contents
let length doc = String.length doc.contents
let line_count doc = Array.length doc.line_starts

(* End offset of the [i]-th (0-based) line, newline excluded. *)
let line_end doc i =
  if i + 1 < Array.length doc.line_starts then doc.line_starts.(i + 1) - 1
  else String.length doc.contents

let line_span doc n =
  let i = n - 1 in
  if i < 0 || i >= Array.length doc.line_starts then None
  else
    let offset = doc.line_starts.(i) in
    Some { offset; length = line_end doc i - offset }

let line doc n =
  match line_span doc n with
  | Some { offset; length } -> Some (String.sub doc.contents offset length)
  | None -> None

let line_exn doc n =
  match line doc n with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Textdoc.line_exn: no line %d" n)

let lines doc = List.init (line_count doc) (fun i -> line_exn doc (i + 1))

let span_valid doc { offset; length } =
  offset >= 0 && length >= 0 && offset + length <= String.length doc.contents

let extract doc span =
  if span_valid doc span then
    Some (String.sub doc.contents span.offset span.length)
  else None

let extract_exn doc span =
  match extract doc span with
  | Some s -> s
  | None -> invalid_arg "Textdoc.extract_exn: span out of bounds"

(* Binary search: index of the line containing [offset]. *)
let line_index_of_offset doc offset =
  let starts = doc.line_starts in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if starts.(mid) <= offset then search mid hi else search lo (mid - 1)
  in
  search 0 (Array.length starts - 1)

let position_of_offset doc offset =
  if offset < 0 || offset > String.length doc.contents then None
  else
    let i = line_index_of_offset doc offset in
    Some { line = i + 1; column = offset - doc.line_starts.(i) + 1 }

let offset_of_position doc { line; column } =
  match line_span doc line with
  | Some { offset; length } when column >= 1 && column <= length + 1 ->
      Some (offset + column - 1)
  | Some _ | None -> None

let span_of_positions doc ~start ~stop =
  match (offset_of_position doc start, offset_of_position doc stop) with
  | Some a, Some b when b >= a -> Some { offset = a; length = b - a }
  | _ -> None

let positions_of_span doc span =
  if not (span_valid doc span) then None
  else
    match
      ( position_of_offset doc span.offset,
        position_of_offset doc (span.offset + span.length) )
    with
    | Some a, Some b -> Some (a, b)
    | _ -> None

let find_all doc needle =
  let n = String.length needle in
  if n = 0 then []
  else
    let limit = String.length doc.contents - n in
    let rec scan i acc =
      if i > limit then List.rev acc
      else if String.sub doc.contents i n = needle then
        scan (i + 1) ({ offset = i; length = n } :: acc)
      else scan (i + 1) acc
    in
    scan 0 []

let find_first ?(from = 0) doc needle =
  let n = String.length needle in
  if n = 0 then None
  else
    let limit = String.length doc.contents - n in
    let rec scan i =
      if i > limit then None
      else if String.sub doc.contents i n = needle then
        Some { offset = i; length = n }
      else scan (i + 1)
    in
    scan (max 0 from)

let context doc span ~lines_around =
  if not (span_valid doc span) then ""
  else
    let first = line_index_of_offset doc span.offset in
    let last =
      line_index_of_offset doc (max span.offset (span.offset + span.length - 1))
    in
    let lo = max 0 (first - lines_around) in
    let hi = min (line_count doc - 1) (last + lines_around) in
    let rec collect i acc =
      if i > hi then List.rev acc else collect (i + 1) (line_exn doc (i + 1) :: acc)
    in
    String.concat "\n" (collect lo [])

let reanchor doc ~excerpt ~stale_offset =
  match find_all doc excerpt with
  | [] -> None
  | candidates ->
      let distance s = abs (s.offset - stale_offset) in
      let best =
        List.fold_left
          (fun acc s ->
            match acc with
            | None -> Some s
            | Some b -> if distance s < distance b then Some s else acc)
          None candidates
      in
      best

let equal a b = String.equal a.contents b.contents

let pp ppf doc =
  Format.fprintf ppf "<textdoc %d bytes, %d lines>" (length doc)
    (line_count doc)

let pp_span ppf { offset; length } =
  Format.fprintf ppf "[%d..%d)" offset (offset + length)
