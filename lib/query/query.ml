module Trim = Si_triple.Trim
module Triple = Si_triple.Triple

let run_count = Si_obs.Registry.counter "query.run"
let optimize_count = Si_obs.Registry.counter "query.optimize"
let run_latency = Si_obs.Registry.histogram "query.run"

type term = Var of string | Resource of string | Literal of string | Wildcard
type pattern = { subj : term; pred : term; obj : term }

type filter =
  | Equals of string * string
  | Contains of string * string
  | Prefix of string * string
  | Bound_to_resource of string

type order = Ascending of string | Descending of string

type t = {
  select : string list;
  patterns : pattern list;
  filters : filter list;
  order_by : order option;
  limit : int option;
}

type binding = (string * Triple.obj) list

let query ?(select = []) ?(filters = []) ?order_by ?limit patterns =
  { select; patterns; filters; order_by; limit }

let pat subj pred obj = { subj; pred; obj }

let variables t =
  let of_term acc = function Var v -> v :: acc | _ -> acc in
  List.fold_left
    (fun acc p -> of_term (of_term (of_term acc p.subj) p.pred) p.obj)
    [] t.patterns
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------ printing *)

let term_to_string = function
  | Var v -> "?" ^ v
  | Resource r -> "<" ^ r ^ ">"
  | Literal l -> "\"" ^ l ^ "\""
  | Wildcard -> "_"

let pattern_to_string p =
  Printf.sprintf "%s %s %s" (term_to_string p.subj) (term_to_string p.pred)
    (term_to_string p.obj)

let filter_to_string = function
  | Equals (v, s) -> Printf.sprintf "equals(?%s, \"%s\")" v s
  | Contains (v, s) -> Printf.sprintf "contains(?%s, \"%s\")" v s
  | Prefix (v, s) -> Printf.sprintf "prefix(?%s, \"%s\")" v s
  | Bound_to_resource v -> Printf.sprintf "isResource(?%s)" v

let to_string t =
  let select =
    match t.select with
    | [] -> "select *"
    | vars -> "select " ^ String.concat " " (List.map (fun v -> "?" ^ v) vars)
  in
  let body = String.concat " . " (List.map pattern_to_string t.patterns) in
  let filters =
    String.concat ""
      (List.map (fun f -> " filter " ^ filter_to_string f) t.filters)
  in
  let ordering =
    match t.order_by with
    | Some (Ascending v) -> Printf.sprintf " order by ?%s" v
    | Some (Descending v) -> Printf.sprintf " order by ?%s desc" v
    | None -> ""
  in
  let limiting =
    match t.limit with Some n -> Printf.sprintf " limit %d" n | None -> ""
  in
  Printf.sprintf "%s where { %s }%s%s%s" select body filters ordering limiting

(* ------------------------------------------------------------- parsing *)

type token =
  | Tword of string
  | Tvar of string
  | Tres of string
  | Tlit of string
  | Tdot
  | Tlbrace
  | Trbrace
  | Tlparen
  | Trparen
  | Tcomma
  | Tstar

exception Parse_failure of string

let tokenize input =
  let n = String.length input in
  let pos = ref 0 in
  let toks = ref [] in
  let is_word_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '-' | '/' | '.'
    | '#' | '@' ->
        true
    | _ -> false
  in
  while !pos < n do
    let c = input.[!pos] in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '{' -> toks := Tlbrace :: !toks; incr pos
    | '}' -> toks := Trbrace :: !toks; incr pos
    | '(' -> toks := Tlparen :: !toks; incr pos
    | ')' -> toks := Trparen :: !toks; incr pos
    | ',' -> toks := Tcomma :: !toks; incr pos
    | '*' -> toks := Tstar :: !toks; incr pos
    | '.' ->
        (* A '.' inside a word was consumed by the word scanner; here it is
           the pattern separator. *)
        toks := Tdot :: !toks;
        incr pos
    | '?' ->
        incr pos;
        let start = !pos in
        while !pos < n && is_word_char input.[!pos] do
          incr pos
        done;
        if !pos = start then raise (Parse_failure "empty variable name");
        toks := Tvar (String.sub input start (!pos - start)) :: !toks
    | '<' ->
        incr pos;
        let start = !pos in
        (match String.index_from_opt input !pos '>' with
        | None -> raise (Parse_failure "unterminated <resource>")
        | Some close ->
            toks := Tres (String.sub input start (close - start)) :: !toks;
            pos := close + 1)
    | '"' ->
        incr pos;
        let buf = Buffer.create 16 in
        let rec scan () =
          if !pos >= n then raise (Parse_failure "unterminated string")
          else if input.[!pos] = '"' then incr pos
          else begin
            Buffer.add_char buf input.[!pos];
            incr pos;
            scan ()
          end
        in
        scan ();
        toks := Tlit (Buffer.contents buf) :: !toks
    | '_' when !pos + 1 >= n || not (is_word_char input.[!pos + 1]) ->
        toks := Tword "_" :: !toks;
        incr pos
    | c when is_word_char c ->
        let start = !pos in
        while !pos < n && is_word_char input.[!pos] do
          incr pos
        done;
        (* Trailing '.' of a word is the separator, not part of it. *)
        let word = String.sub input start (!pos - start) in
        let word, trailing_dot =
          if String.length word > 1 && word.[String.length word - 1] = '.'
          then (String.sub word 0 (String.length word - 1), true)
          else (word, false)
        in
        toks := Tword word :: !toks;
        if trailing_dot then toks := Tdot :: !toks
    | c -> raise (Parse_failure (Printf.sprintf "unexpected character %C" c))
  done;
  List.rev !toks

let keyword = function
  | Tword w -> Some (String.lowercase_ascii w)
  | _ -> None

let parse input =
  try
    let toks = ref (tokenize input) in
    let peek () = match !toks with [] -> None | t :: _ -> Some t in
    let next () =
      match !toks with
      | [] -> raise (Parse_failure "unexpected end of query")
      | t :: rest ->
          toks := rest;
          t
    in
    (* select clause *)
    let select =
      match peek () with
      | Some t when keyword t = Some "select" ->
          let _ = next () in
          let rec vars acc =
            match peek () with
            | Some (Tvar v) ->
                let _ = next () in
                vars (v :: acc)
            | Some Tstar ->
                let _ = next () in
                List.rev acc
            | _ -> List.rev acc
          in
          vars []
      | _ -> []
    in
    (match peek () with
    | Some t when keyword t = Some "where" -> ignore (next ())
    | _ -> ());
    (match next () with
    | Tlbrace -> ()
    | _ -> raise (Parse_failure "expected '{'"));
    let term_of_token = function
      | Tvar v -> Var v
      | Tres r -> Resource r
      | Tlit l -> Literal l
      | Tword "_" -> Wildcard
      | Tword w -> Resource w
      | _ -> raise (Parse_failure "expected a term")
    in
    let pred_of_token = function
      | Tvar v -> Var v
      | Tword "_" -> Wildcard
      | Tword w -> Literal w  (* predicate names are plain strings *)
      | Tres r -> Literal r
      | Tlit l -> Literal l
      | _ -> raise (Parse_failure "expected a predicate")
    in
    let rec patterns acc =
      match peek () with
      | Some Trbrace ->
          let _ = next () in
          List.rev acc
      | Some Tdot ->
          let _ = next () in
          patterns acc
      | Some _ ->
          let subj = term_of_token (next ()) in
          let pred = pred_of_token (next ()) in
          let obj = term_of_token (next ()) in
          patterns ({ subj; pred; obj } :: acc)
      | None -> raise (Parse_failure "expected '}'")
    in
    let patterns = patterns [] in
    (* filter clauses *)
    let rec filters acc =
      match peek () with
      | Some t when keyword t = Some "filter" ->
          let _ = next () in
          let name =
            match next () with
            | Tword w -> String.lowercase_ascii w
            | _ -> raise (Parse_failure "expected a filter name")
          in
          (match next () with
          | Tlparen -> ()
          | _ -> raise (Parse_failure "expected '('"));
          let v =
            match next () with
            | Tvar v -> v
            | _ -> raise (Parse_failure "expected a variable")
          in
          let f =
            if name = "isresource" then begin
              match next () with
              | Trparen -> Bound_to_resource v
              | _ -> raise (Parse_failure "expected ')'")
            end
            else begin
              (match next () with
              | Tcomma -> ()
              | _ -> raise (Parse_failure "expected ','"));
              let s =
                match next () with
                | Tlit s -> s
                | Tword s -> s
                | _ -> raise (Parse_failure "expected a string")
              in
              (match next () with
              | Trparen -> ()
              | _ -> raise (Parse_failure "expected ')'"));
              match name with
              | "equals" -> Equals (v, s)
              | "contains" -> Contains (v, s)
              | "prefix" -> Prefix (v, s)
              | other ->
                  raise (Parse_failure (Printf.sprintf "unknown filter %S" other))
            end
          in
          filters (f :: acc)
      | Some t when keyword t = Some "order" || keyword t = Some "limit" ->
          List.rev acc
      | Some _ -> raise (Parse_failure "trailing input after query")
      | None -> List.rev acc
    in
    let filters = filters [] in
    (* trailing clauses: order by ?v [desc], limit N *)
    let order_by =
      match peek () with
      | Some t when keyword t = Some "order" -> (
          let _ = next () in
          (match next () with
          | Tword w when String.lowercase_ascii w = "by" -> ()
          | _ -> raise (Parse_failure "expected 'by' after 'order'"));
          match next () with
          | Tvar v -> (
              match peek () with
              | Some t when keyword t = Some "desc" ->
                  let _ = next () in
                  Some (Descending v)
              | Some t when keyword t = Some "asc" ->
                  let _ = next () in
                  Some (Ascending v)
              | _ -> Some (Ascending v))
          | _ -> raise (Parse_failure "expected a variable after 'order by'"))
      | _ -> None
    in
    let limit =
      match peek () with
      | Some t when keyword t = Some "limit" -> (
          let _ = next () in
          match next () with
          | Tword w -> (
              match int_of_string_opt w with
              | Some n when n >= 0 -> Some n
              | _ -> raise (Parse_failure "expected a count after 'limit'"))
          | _ -> raise (Parse_failure "expected a count after 'limit'"))
      | _ -> None
    in
    (match peek () with
    | Some _ -> raise (Parse_failure "trailing input after query")
    | None -> ());
    if patterns = [] then Error "a query needs at least one pattern"
    else Ok { select; patterns; filters; order_by; limit }
  with Parse_failure msg -> Error msg

let parse_exn input =
  match parse input with
  | Ok q -> q
  | Error msg -> invalid_arg ("Query.parse_exn: " ^ msg)

(* ---------------------------------------------------------- evaluation *)

(* ---------------------------------------------------------- optimizer *)

(* Ground terms are canonicalized through the {!Si_triple.Atom} table
   once per run: stores emit canonical interned strings, so after this
   every [String.equal] on the match path — and every hashtable probe
   the store does with the bound fields — starts from a
   physical-equality hit instead of a byte compare. [Contains] and the
   other filters keep working on the materialized candidate strings
   only; nothing here interns ([Atom.canon] never grows the table). *)
let canon_term = function
  | Resource r -> Resource (Si_triple.Atom.canon r)
  | Literal l -> Literal (Si_triple.Atom.canon l)
  | (Var _ | Wildcard) as t -> t

let canon_patterns t =
  {
    t with
    patterns =
      List.map
        (fun p ->
          {
            subj = canon_term p.subj;
            pred = canon_term p.pred;
            obj = canon_term p.obj;
          })
        t.patterns;
  }

let pattern_variables p =
  let add acc = function Var v -> v :: acc | _ -> acc in
  add (add (add [] p.subj) p.pred) p.obj

(* Result size of a pattern taken in isolation: probe the store's index
   cardinalities with whatever fields are constant — no triple list is
   materialized. *)
let estimate trim p =
  let subject = match p.subj with Resource r -> Some r | _ -> None in
  let predicate =
    match p.pred with Literal l -> Some l | Resource r -> Some r | _ -> None
  in
  let object_ =
    match p.obj with
    | Resource r -> Some (Triple.Resource r)
    | Literal l -> Some (Triple.Literal l)
    | _ -> None
  in
  match (subject, predicate, object_) with
  | None, None, None -> Trim.size trim
  | _ -> Trim.count_select ?subject ?predicate ?object_ trim

let optimize trim t =
  Si_obs.Counter.incr optimize_count;
  let t = canon_patterns t in
  let remaining = ref (List.map (fun p -> (p, estimate trim p)) t.patterns) in
  let bound = Hashtbl.create 8 in
  let chosen = ref [] in
  while !remaining <> [] do
    (* Prefer patterns connected to the bound variables; among those, the
       smallest estimate. A bound variable makes a pattern much more
       selective, so connected patterns score with their estimate divided
       by a large factor per bound variable. *)
    let score (p, est) =
      let vars = pattern_variables p in
      let bound_vars =
        List.length (List.filter (Hashtbl.mem bound) vars)
      in
      if bound_vars > 0 || vars = [] || Hashtbl.length bound = 0 then
        float_of_int est /. (float_of_int (bound_vars * 1000) +. 1.)
      else
        (* Disconnected pattern: cross product; heavily penalized. *)
        float_of_int est *. 1e6
    in
    let best =
      List.fold_left
        (fun acc candidate ->
          match acc with
          | None -> Some candidate
          | Some current ->
              if score candidate < score current then Some candidate else acc)
        None !remaining
    in
    match best with
    | None -> remaining := []
    | Some ((p, _) as entry) ->
        chosen := p :: !chosen;
        List.iter (fun v -> Hashtbl.replace bound v ()) (pattern_variables p);
        remaining := List.filter (fun e -> e != entry) !remaining
  done;
  { t with patterns = List.rev !chosen }

(* Does [l] contain [s]? Allocates nothing: both loops are top-level
   functions, because local ones would capture [l] and [s] in closures
   built on every call. *)
let rec matches_at l s i j =
  j = String.length s || (l.[i + j] = s.[j] && matches_at l s i (j + 1))

(* [s] is not empty: the first character is compared in the loop, and
   [matches_at] runs only where it matches. *)
let rec contains_from l s i =
  i + String.length s <= String.length l
  && ((l.[i] = s.[0] && matches_at l s i 1) || contains_from l s (i + 1))

let contains_substring l s = s = "" || contains_from l s 0

(* Raised to abandon the search once [limit] distinct bindings exist and no
   ordering is requested. *)
exception Enough

(* The executor streams bindings instead of materializing every
   intermediate environment list: patterns are matched depth-first, the
   (mutable, hashtable-backed) environment is extended on the way down and
   restored on the way back up, and each complete environment that passes
   the filters is emitted to a mode-specific sink. Sinks:
   - no order_by, no limit: accumulate distinct bindings, sort at the end;
   - no order_by, limit n:  accumulate distinct bindings and raise [Enough]
     after the n-th — the store is not enumerated further;
   - order_by, no limit:    accumulate distinct bindings, sort by key;
   - order_by, limit n:     bounded top-k — keep only the current best n,
     so memory stays O(n + distinct-seen) instead of O(results). *)
let run_plain trim t =
  let keep = if t.select = [] then variables t else t.select in
  let env : (string, Triple.obj) Hashtbl.t = Hashtbl.create 16 in
  let subst = function
    | Var v -> (
        match Hashtbl.find_opt env v with
        | Some (Triple.Resource r) -> Resource r
        | Some (Triple.Literal l) -> Literal l
        | None -> Var v)
    | t -> t
  in
  (* [term] is already substituted: ground terms compare, variables and
     wildcards match anything. *)
  let term_matches term (value : Triple.obj) =
    match (term, value) with
    | Wildcard, _ | Var _, _ -> true
    | Resource r, Triple.Resource r' -> String.equal r r'
    | Literal l, Triple.Literal l' -> String.equal l l'
    | Resource _, Triple.Literal _ | Literal _, Triple.Resource _ -> false
  in
  let bind term (value : Triple.obj) added =
    match term with
    | Var v when not (Hashtbl.mem env v) ->
        Hashtbl.add env v value;
        v :: added
    | _ -> added
  in
  let iter_pattern p k =
    let s = subst p.subj and pr = subst p.pred and o = subst p.obj in
    let subject = match s with Resource r -> Some r | _ -> None in
    let predicate =
      match pr with Literal l -> Some l | Resource r -> Some r | _ -> None
    in
    let object_ =
      match o with
      | Resource r -> Some (Triple.Resource r)
      | Literal l -> Some (Triple.Literal l)
      | _ -> None
    in
    List.iter
      (fun (tr : Triple.t) ->
        (* Subject positions only ever hold resources. *)
        let sub_obj = Triple.Resource tr.subject in
        let pred_obj = Triple.Literal tr.predicate in
        if
          term_matches s sub_obj
          && term_matches pr pred_obj
          && term_matches o tr.object_
        then begin
          let added =
            bind p.obj tr.object_ (bind p.pred pred_obj (bind p.subj sub_obj []))
          in
          k ();
          List.iter (Hashtbl.remove env) added
        end)
      (Trim.select ?subject ?predicate ?object_ trim)
  in
  let passes_filter f =
    let literal_of v =
      match Hashtbl.find_opt env v with
      | Some (Triple.Literal l) -> Some l
      | Some (Triple.Resource r) -> Some r
      | None -> None
    in
    match f with
    | Equals (v, s) -> literal_of v = Some s
    | Contains (v, s) -> (
        match literal_of v with
        | None -> false
        | Some l -> contains_substring l s)
    | Prefix (v, s) -> (
        match literal_of v with
        | None -> false
        | Some l ->
            let nl = String.length s in
            String.length l >= nl
            &&
            let rec eq i = i = nl || (l.[i] = s.[i] && eq (i + 1)) in
            eq 0)
    | Bound_to_resource v -> (
        match Hashtbl.find_opt env v with
        | Some (Triple.Resource _) -> true
        | _ -> false)
  in
  let seen : (binding, unit) Hashtbl.t = Hashtbl.create 64 in
  let search emit =
    let rec go = function
      | [] ->
          if List.for_all passes_filter t.filters then begin
            let b =
              List.filter_map
                (fun v -> Option.map (fun o -> (v, o)) (Hashtbl.find_opt env v))
                keep
            in
            if not (Hashtbl.mem seen b) then begin
              Hashtbl.add seen b ();
              emit b
            end
          end
      | p :: rest -> iter_pattern p (fun () -> go rest)
    in
    go t.patterns
  in
  match t.order_by with
  | None -> (
      match t.limit with
      | Some 0 -> []
      | Some n ->
          let out = ref [] and taken = ref 0 in
          (try
             search (fun b ->
                 out := b :: !out;
                 incr taken;
                 if !taken >= n then raise Enough)
           with Enough -> ());
          List.sort compare !out
      | None ->
          let out = ref [] in
          search (fun b -> out := b :: !out);
          List.sort compare !out)
  | Some order ->
      let v, flip =
        match order with Ascending v -> (v, 1) | Descending v -> (v, -1)
      in
      let key binding =
        match List.assoc_opt v binding with
        | Some (Triple.Literal l) -> Some l
        | Some (Triple.Resource r) -> Some r
        | None -> None
      in
      (* Ordering key first, natural order as the tiebreak — equivalent to
         the dedup-sort-then-stable-sort of the list-based executor. *)
      let cmp a b =
        let c = flip * compare (key a) (key b) in
        if c <> 0 then c else compare a b
      in
      let rec insert b = function
        | [] -> [ b ]
        | x :: rest -> if cmp b x < 0 then b :: x :: rest else x :: insert b rest
      in
      (match t.limit with
      | Some 0 -> []
      | Some n ->
          (* Bounded top-k: [best] holds at most [n] bindings, sorted. *)
          let best = ref [] and blen = ref 0 and worst = ref None in
          search (fun b ->
              if !blen < n then begin
                best := insert b !best;
                incr blen;
                if !blen = n then
                  worst := Some (List.nth !best (n - 1))
              end
              else
                match !worst with
                | Some w when cmp b w < 0 ->
                    let rec drop_last = function
                      | [] | [ _ ] -> []
                      | x :: rest -> x :: drop_last rest
                    in
                    best := drop_last (insert b !best);
                    worst := Some (List.nth !best (n - 1))
                | _ -> ());
          !best
      | None ->
          let out = ref [] in
          search (fun b -> out := b :: !out);
          List.sort cmp !out)

let run trim t =
  Si_obs.Counter.incr run_count;
  let t = canon_patterns t in
  if Si_obs.Span.on () then
    Si_obs.Span.timed run_latency ~layer:"query" ~op:"run" (fun () ->
        run_plain trim t)
  else run_plain trim t

let count trim t = List.length (run trim t)

let binding_to_string binding =
  String.concat ", "
    (List.map
       (fun (v, o) -> Printf.sprintf "?%s=%s" v (Triple.obj_to_string o))
       binding)
