module Trim = Si_triple.Trim

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let valid_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       s

(* "[1..1]" | "[0..*]" | "[2..5]" *)
let parse_card s =
  let fail () = Error (Printf.sprintf "bad cardinality %S" s) in
  let n = String.length s in
  if n < 6 || s.[0] <> '[' || s.[n - 1] <> ']' then fail ()
  else
    let body = String.sub s 1 (n - 2) in
    match String.index_opt body '.' with
    | Some i
      when i + 1 < String.length body && body.[i + 1] = '.' ->
        let lo = String.sub body 0 i in
        let hi = String.sub body (i + 2) (String.length body - i - 2) in
        (match (int_of_string_opt lo, hi) with
        | Some min_card, "*" -> Ok { Model.min_card; max_card = None }
        | Some min_card, _ -> (
            match int_of_string_opt hi with
            | Some mx when mx >= min_card ->
                Ok { Model.min_card; max_card = Some mx }
            | _ -> fail ())
        | None, _ -> fail ())
    | _ -> fail ()

type line_kind =
  | Lmodel of string
  | Ldecl of Model.construct_kind * string
  | Lisa of string * string
  | Lprop of string * string * string * Model.cardinality

let kinds =
  List.map
    (fun k -> (Model.kind_name k, k))
    [ Model.Construct; Model.Literal_construct; Model.Mark_construct ]

let classify line =
  match tokens line with
  | [] -> Ok None
  | [ "model"; name ] when valid_ident name -> Ok (Some (Lmodel name))
  | [ keyword; name ] when valid_ident name && List.mem_assoc keyword kinds ->
      Ok (Some (Ldecl (List.assoc keyword kinds, name)))
  | [ sub; "isa"; super ] when valid_ident sub && valid_ident super ->
      Ok (Some (Lisa (sub, super)))
  | [ dotted; ":"; range ] when valid_ident range -> (
      match String.index_opt dotted '.' with
      | Some i ->
          let domain = String.sub dotted 0 i in
          let pred = String.sub dotted (i + 1) (String.length dotted - i - 1) in
          if valid_ident domain && valid_ident pred then
            Ok (Some (Lprop (domain, pred, range, Model.any_card)))
          else Error "malformed property line"
      | None -> Error "expected Construct.property : Range")
  | [ dotted; ":"; range; card ] when valid_ident range -> (
      match (String.index_opt dotted '.', parse_card card) with
      | Some i, Ok cardinality ->
          let domain = String.sub dotted 0 i in
          let pred = String.sub dotted (i + 1) (String.length dotted - i - 1) in
          if valid_ident domain && valid_ident pred then
            Ok (Some (Lprop (domain, pred, range, cardinality)))
          else Error "malformed property line"
      | _, Error msg -> Error msg
      | None, _ -> Error "expected Construct.property : Range [m..n]")
  | _ -> Error "unrecognized line"

let parse trim text =
  let lines = String.split_on_char '\n' text in
  let parsed =
    List.mapi
      (fun i line -> (i + 1, classify (strip_comment line)))
      lines
  in
  (* Surface the first syntax error with its line number. *)
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (_, Ok None) :: rest -> collect acc rest
    | (_, Ok (Some k)) :: rest -> collect (k :: acc) rest
    | (ln, Error msg) :: _ -> Error (Printf.sprintf "line %d: %s" ln msg)
  in
  match collect [] parsed with
  | Error _ as e -> e
  | Ok kinds -> (
      match kinds with
      | Lmodel name :: rest ->
          let m = Model.define trim ~name in
          (* Pass 1: explicit declarations. *)
          List.iter
            (function
              | Ldecl (Model.Construct, n) -> ignore (Model.construct m n)
              | Ldecl (Model.Literal_construct, n) ->
                  ignore (Model.literal_construct m n)
              | Ldecl (Model.Mark_construct, n) ->
                  ignore (Model.mark_construct m n)
              | Lmodel _ | Lisa _ | Lprop _ -> ())
            rest;
          (* Pass 2: implicit constructs, generalization, connectors. *)
          let ensure n =
            match Model.find_construct m n with
            | Some c -> c
            | None -> Model.construct m n
          in
          let rec apply = function
            | [] -> Ok m
            | Lmodel n :: _ ->
                Error (Printf.sprintf "duplicate 'model %s' line" n)
            | Ldecl _ :: rest -> apply rest
            | Lisa (sub, super) :: rest ->
                Model.generalize m ~sub:(ensure sub) ~super:(ensure super);
                apply rest
            | Lprop (domain, pred, range, card) :: rest ->
                ignore
                  (Model.connect m ~name:pred ~from_:(ensure domain)
                     ~to_:(ensure range) ~card ());
                apply rest
          in
          apply rest
      | _ -> Error "the first line must be 'model <name>'")

let parse_file trim path = Result.bind (Si_io.Io.read_file path) (parse trim)

let print m =
  let cm = Model.compile m in
  let name = Model.name_of cm in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "model %s\n\n" (Model.name m));
  let constructs = Model.constructs cm in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" (Model.kind_name c.Model.kind) (name c)))
    constructs;
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      (* Direct edges only: printing the transitive closure would make
         parse (print m) declare extra subclass triples on reparse. *)
      List.iter
        (fun super ->
          Buffer.add_string buf
            (Printf.sprintf "%s isa %s\n" (name c) (name super)))
        (Model.parents cm c))
    constructs;
  Buffer.add_char buf '\n';
  List.iter
    (fun conn ->
      Buffer.add_string buf
        (Printf.sprintf "%s.%s : %s [%s]\n"
           (name conn.Model.conn_domain)
           conn.Model.conn_predicate
           (name conn.Model.conn_range)
           (Model.card_to_string conn.Model.card)))
    (Model.connectors cm);
  Buffer.contents buf
