module Xml = Si_xmlk

(* Instrumentation: counters are unconditional (one atomic add);
   spans/latency histograms only engage while Si_obs.Span tracing is
   on, and the [if Span.on ()] at each call-site keeps the disabled
   path closure-free. *)
let insert_count = Si_obs.Registry.counter "triple.insert"
let remove_count = Si_obs.Registry.counter "triple.remove"
let select_count = Si_obs.Registry.counter "triple.select"
let transaction_count = Si_obs.Registry.counter "triple.transaction"
let clear_count = Si_obs.Registry.counter "triple.clear"
let insert_latency = Si_obs.Registry.histogram "triple.insert"
let select_latency = Si_obs.Registry.histogram "triple.select"
let transaction_latency = Si_obs.Registry.histogram "triple.transaction"

type pack = Pack : (module Store.S with type t = 'a) * 'a -> pack

(* The undo log records inverse operations, newest first. *)
type undo = Undo_add of Triple.t | Undo_remove of Triple.t

type op = Op_add of Triple.t | Op_remove of Triple.t | Op_clear

type t = {
  pack : pack;
  mutable counter : int;
  mutable txn : undo list option;  (* Some log while a transaction runs *)
  mutable observer : (op -> unit) option;
}

let of_pack pack = { pack; counter = 0; txn = None; observer = None }
let default_store = (module Store.Columnar_store : Store.S)

let create ?(store = default_store) () =
  let (module S) = store in
  of_pack (Pack ((module S), S.create ()))

let on_mutate t f = t.observer <- Some f
let notify t op = match t.observer with Some f -> f op | None -> ()

let store_name t =
  let (Pack ((module S), _)) = t.pack in
  S.name

let record t undo =
  match t.txn with
  | Some log -> t.txn <- Some (undo :: log)
  | None -> ()

let add_plain t triple =
  let (Pack ((module S), s)) = t.pack in
  let added = S.add s triple in
  if added then begin
    record t (Undo_add triple);
    notify t (Op_add triple)
  end;
  added

let add t triple =
  Si_obs.Counter.incr insert_count;
  if Si_obs.Span.on () then
    Si_obs.Span.timed insert_latency ~layer:"triple" ~op:"insert" (fun () ->
        add_plain t triple)
  else add_plain t triple

let remove t triple =
  Si_obs.Counter.incr remove_count;
  let (Pack ((module S), s)) = t.pack in
  let removed = S.remove s triple in
  if removed then begin
    record t (Undo_remove triple);
    notify t (Op_remove triple)
  end;
  removed

let in_transaction t = t.txn <> None

(* Rollback goes through the store directly (the undo ops must not be
   re-recorded), but the observer still has to see the inverse
   mutations, or a journal fed by it would diverge from the store. *)
let rollback t log =
  let (Pack ((module S), s)) = t.pack in
  List.iter
    (function
      | Undo_add triple ->
          if S.remove s triple then notify t (Op_remove triple)
      | Undo_remove triple ->
          if S.add s triple then notify t (Op_add triple))
    log

let transaction_plain t body =
  if in_transaction t then
    invalid_arg "Trim.transaction: transactions do not nest";
  t.txn <- Some [];
  let finish () =
    match t.txn with
    | Some log ->
        t.txn <- None;
        log
    | None -> []
  in
  match body () with
  | Ok _ as result ->
      ignore (finish ());
      Ok result
  | Error _ as result ->
      rollback t (finish ());
      Ok result
  | exception exn ->
      rollback t (finish ());
      Error exn

let transaction t body =
  Si_obs.Counter.incr transaction_count;
  if Si_obs.Span.on () then
    Si_obs.Span.timed transaction_latency ~layer:"triple" ~op:"transaction"
      (fun () -> transaction_plain t body)
  else transaction_plain t body

let mem t triple =
  let (Pack ((module S), s)) = t.pack in
  S.mem s triple

let size t =
  let (Pack ((module S), s)) = t.pack in
  S.size s

let clear t =
  Si_obs.Counter.incr clear_count;
  let (Pack ((module S), s)) = t.pack in
  S.clear s;
  notify t Op_clear

(* Straight to the store, not through [select]: enumerating for
   persistence or introspection is not counted as a [triple.select]. *)
let to_list t =
  let (Pack ((module S), s)) = t.pack in
  S.select s

let add_all t triples =
  match t.observer with
  | Some _ ->
      (* The observer must see each effective insertion, so take the
         per-triple path. *)
      List.iter (fun triple -> ignore (add t triple)) triples
  | None ->
      (* Straight to the store, not through [add]: a bulk load is not
         counted as [triple.insert]s. *)
      let (Pack ((module S), s)) = t.pack in
      List.iter (fun triple -> ignore (S.add s triple)) triples

let select ?subject ?predicate ?object_ t =
  Si_obs.Counter.incr select_count;
  let (Pack ((module S), s)) = t.pack in
  if Si_obs.Span.on () then
    Si_obs.Span.timed select_latency ~layer:"triple" ~op:"select" (fun () ->
        S.select ?subject ?predicate ?object_ s)
  else S.select ?subject ?predicate ?object_ s

let count_select ?subject ?predicate ?object_ t =
  let (Pack ((module S), s)) = t.pack in
  S.count ?subject ?predicate ?object_ s

let exists ?subject ?predicate ?object_ t =
  count_select ?subject ?predicate ?object_ t > 0

let objects_of t ~subject ~predicate =
  List.map
    (fun (tr : Triple.t) -> tr.object_)
    (select ~subject ~predicate t)

let object_of t ~subject ~predicate =
  match objects_of t ~subject ~predicate with [] -> None | o :: _ -> Some o

let literal_of t ~subject ~predicate =
  match object_of t ~subject ~predicate with
  | Some (Triple.Literal s) -> Some s
  | Some (Triple.Resource _) | None -> None

let resource_of t ~subject ~predicate =
  match object_of t ~subject ~predicate with
  | Some (Triple.Resource r) -> Some r
  | Some (Triple.Literal _) | None -> None

let set t ~subject ~predicate object_ =
  List.iter (fun tr -> ignore (remove t tr)) (select ~subject ~predicate t);
  ignore (add t (Triple.make subject predicate object_))

let remove_subject t subject =
  let doomed = select ~subject t in
  List.iter (fun tr -> ignore (remove t tr)) doomed;
  List.length doomed

let new_id ?(prefix = "r") t =
  let rec fresh () =
    t.counter <- t.counter + 1;
    let id = Printf.sprintf "%s%d" prefix t.counter in
    if not (exists ~subject:id t) then id else fresh ()
  in
  fresh ()

(* Breadth-first closure from a root resource. *)
let traverse t root =
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  let triples = ref [] in
  let queue = Queue.create () in
  Hashtbl.add seen root ();
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let subject = Queue.pop queue in
    order := subject :: !order;
    let outgoing = select ~subject t in
    triples := List.rev_append outgoing !triples;
    List.iter
      (fun (tr : Triple.t) ->
        match tr.object_ with
        | Triple.Resource r ->
            if not (Hashtbl.mem seen r) then begin
              Hashtbl.add seen r ();
              Queue.add r queue
            end
        | Triple.Literal _ -> ())
      outgoing
  done;
  (List.rev !order, List.rev !triples)

let view t root = snd (traverse t root)
let reachable_resources t root = fst (traverse t root)

let subjects t =
  List.sort_uniq String.compare
    (List.map (fun (tr : Triple.t) -> tr.subject) (to_list t))

let predicates t =
  List.sort_uniq String.compare
    (List.map (fun (tr : Triple.t) -> tr.predicate) (to_list t))

(* ------------------------------------------------------------------ XML *)

let triple_to_xml (tr : Triple.t) =
  let obj =
    match tr.object_ with
    | Triple.Resource r -> Xml.Node.element "r" [ Xml.Node.text r ]
    | Triple.Literal l -> Xml.Node.element "l" [ Xml.Node.text l ]
  in
  Xml.Node.element "t"
    ~attrs:[ ("s", tr.subject); ("p", tr.predicate) ]
    [ obj ]

let to_xml t =
  let sorted = List.sort Triple.compare (to_list t) in
  Xml.Node.element "triples"
    ~attrs:[ ("count", string_of_int (size t)) ]
    (List.map triple_to_xml sorted)

let triple_of_xml node =
  match (Xml.Node.attr "s" node, Xml.Node.attr "p" node, Xml.Node.children node)
  with
  | Some s, Some p, children -> (
      let payload = List.filter Xml.Node.is_element children in
      match payload with
      | [ Xml.Node.Element { name = "r"; _ } as r ] ->
          Ok (Triple.make s p (Triple.Resource (Xml.Node.text_content r)))
      | [ Xml.Node.Element { name = "l"; _ } as l ] ->
          Ok (Triple.make s p (Triple.Literal (Xml.Node.text_content l)))
      | _ -> Error "a <t> element needs exactly one <r> or <l> child")
  | _ -> Error "a <t> element needs s and p attributes"

let triples_of_xml root =
  match root with
  | Xml.Node.Element { name = "triples"; _ } ->
      let rec load acc = function
        | [] -> Ok (List.rev acc)
        | node :: rest -> (
            match triple_of_xml node with
            | Ok triple -> load (triple :: acc) rest
            | Error _ as e -> e)
      in
      load [] (Xml.Node.find_children "t" root)
  | _ -> Error "expected a <triples> root element"

let of_xml ?store root =
  match root with
  | Xml.Node.Element { name = "triples"; _ } ->
      let t = create ?store () in
      let rec load = function
        | [] -> Ok t
        | node :: rest -> (
            match triple_of_xml node with
            | Ok triple ->
                ignore (add t triple);
                load rest
            | Error _ as e -> e)
      in
      load (Xml.Node.find_children "t" root)
  | _ -> Error "expected a <triples> root element"

let save t path =
  let xml = Xml.Print.to_string_pretty ~decl:true (to_xml t) in
  Si_io.Io.write_atomic path xml
  |> Result.map_error (Printf.sprintf "cannot write %s: %s" path)

let load path =
  match Xml.Parse.file path with
  | Error e -> Error (Xml.Parse.error_to_string e)
  | Ok root -> of_xml (Xml.Node.strip_whitespace root)

let equal_contents a b =
  size a = size b
  && List.equal Triple.equal
       (List.sort Triple.compare (to_list a))
       (List.sort Triple.compare (to_list b))

(* --------------------------------------------------------------- binary *)

(* The compact persistence form: an [atoms] section (a string table
   local to this snapshot — ids here are positions in the section, not
   process-wide {!Atom} ids, so the bytes are position-independent) and
   a [triples] section of three u32 columns per row referencing it,
   objects packed as [local_id * 2 + tag] (tag 1 = literal). Triples are
   sorted like {!to_xml}'s output, so equal stores encode to equal
   bytes. *)

module Wrec = Si_wal.Record
module Wbin = Si_wal.Binary

let atoms_section = "atoms"
let triples_section = "triples"

let binary_sections t =
  (* The rows must come out in {!Triple.compare} order (equal stores →
     equal bytes). Sorting the materialized triples directly is cheap
     precisely because the store interns: triples out of the default
     columnar store carry canonical atom strings, so every equal field
     is physically equal and the string compares inside
     {!Triple.compare} short-circuit on pointer identity — the sort
     runs near int-compare speed over the long equal-subject and
     equal-predicate runs. Everything here is sized to this snapshot,
     never to the process-wide atom table (a long-lived process
     accumulates atoms from every store it ever touched). *)
  let triples = to_list t in
  let sorted = List.sort Triple.compare triples in
  let n = List.length triples in
  (* Local ids are assigned in first-occurrence order over the sorted
     rows (subject, predicate, object within each row). Keys are
     structural, so non-canonical duplicates in foreign triple lists
     still collapse to one atom. *)
  let local_of = Hashtbl.create (max 16 (2 * n)) in
  let natoms = ref 0 in
  let atom_body = Buffer.create 1024 in
  let local s =
    match Hashtbl.find_opt local_of s with
    | Some l -> l
    | None ->
        let l = !natoms in
        incr natoms;
        Hashtbl.add local_of s l;
        Wrec.add_u32 atom_body (String.length s);
        Buffer.add_string atom_body s;
        l
  in
  let rows = Buffer.create ((12 * n) + 4) in
  List.iter
    (fun (tr : Triple.t) ->
      let s = local tr.subject in
      let p = local tr.predicate in
      let packed =
        match tr.object_ with
        | Triple.Resource r -> 2 * local r
        | Triple.Literal l -> (2 * local l) + 1
      in
      Wrec.add_u32 rows s;
      Wrec.add_u32 rows p;
      Wrec.add_u32 rows packed)
    sorted;
  let atoms = Buffer.create (Buffer.length atom_body + 4) in
  Wrec.add_u32 atoms !natoms;
  Buffer.add_buffer atoms atom_body;
  let body = Buffer.create (Buffer.length rows + 4) in
  Wrec.add_u32 body n;
  Buffer.add_buffer body rows;
  [
    (atoms_section, Buffer.contents atoms);
    (triples_section, Buffer.contents body);
  ]

let atoms_of_section s =
  let total = String.length s in
  if total < 4 then Error "atoms section shorter than its count header"
  else begin
    let count = Wrec.get_u32 s 0 in
    let atoms = Array.make count "" in
    let rec go i pos =
      if i = count then
        if pos = total then Ok atoms
        else
          Error
            (Printf.sprintf "%d trailing byte(s) after last atom" (total - pos))
      else if pos + 4 > total then Error "truncated atom length"
      else begin
        let len = Wrec.get_u32 s pos in
        if pos + 4 + len > total then
          Error (Printf.sprintf "atom length %d overruns section" len)
        else begin
          atoms.(i) <- String.sub s (pos + 4) len;
          go (i + 1) (pos + 4 + len)
        end
      end
    in
    go 0 4
  end

(* Validated decode of the two sections into the atom-string table,
   the raw rows body, and the row count: both sections' byte counts are
   exact. Row ids are range-checked by [iter_rows]. *)
let decode_sections sections =
  match
    (Wbin.section atoms_section sections, Wbin.section triples_section sections)
  with
  | None, _ -> Error "binary snapshot has no atoms section"
  | _, None -> Error "binary snapshot has no triples section"
  | Some atoms_payload, Some body -> (
      match atoms_of_section atoms_payload with
      | Error e -> Error e
      | Ok atoms ->
          let total = String.length body in
          if total < 4 then
            Error "triples section shorter than its count header"
          else begin
            let count = Wrec.get_u32 body 0 in
            if total - 4 <> 12 * count then
              Error
                (Printf.sprintf
                   "triples section carries %d byte(s) for %d row(s) (want %d)"
                   (total - 4) count (12 * count))
            else Ok (atoms, body, count)
          end)

(* Calls [f row s p packed] for every row, after checking that each
   referenced atom id is in range — so callbacks can index the atoms
   array unchecked. *)
let iter_rows atoms body count f =
  let natoms = Array.length atoms in
  let rec go row =
    if row = count then Ok ()
    else begin
      let base = 4 + (12 * row) in
      let s = Wrec.get_u32 body base in
      let p = Wrec.get_u32 body (base + 4) in
      let packed = Wrec.get_u32 body (base + 8) in
      let bad =
        if s >= natoms then s
        else if p >= natoms then p
        else if packed lsr 1 >= natoms then packed lsr 1
        else -1
      in
      if bad >= 0 then Error (Printf.sprintf "atom id %d out of range" bad)
      else begin
        f row s p packed;
        go (row + 1)
      end
    end
  in
  go 0

let triples_of_binary_sections sections =
  match decode_sections sections with
  | Error e -> Error e
  | Ok (atoms, body, count) -> (
      let acc = ref [] in
      let emit _ s p packed =
        let o = atoms.(packed lsr 1) in
        let obj =
          if packed land 1 = 0 then Triple.Resource o else Triple.Literal o
        in
        acc := Triple.make atoms.(s) atoms.(p) obj :: !acc
      in
      match iter_rows atoms body count emit with
      | Error e -> Error e
      | Ok () -> Ok (List.rev !acc))

let to_binary t = Wbin.encode (binary_sections t)

(* Intern each distinct atom once and decode the rows straight into
   global-id columns the store takes ownership of — recovery never
   materializes a triple list, allocates a per-row tuple, or probes a
   string hashtable per row. Every row is validated before the store is
   built, so a malformed payload is never a partial load. *)
let of_binary_sections ?(store = default_store) sections =
  match decode_sections sections with
  | Error e -> Error e
  | Ok (atoms, body, count) -> (
      let glob = Atom.intern_all atoms in
      let subs = Array.make count 0 in
      let preds = Array.make count 0 in
      let objs = Array.make count 0 in
      let fill row s p packed =
        subs.(row) <- glob.(s);
        preds.(row) <- glob.(p);
        objs.(row) <- (2 * glob.(packed lsr 1)) + (packed land 1)
      in
      match iter_rows atoms body count fill with
      | Error e -> Error e
      | Ok () ->
          let (module S) = store in
          Ok (of_pack (Pack ((module S), S.of_packed_columns subs preds objs))))

let of_binary payload =
  match Wbin.decode payload with
  | Error e -> Error ("binary snapshot: " ^ e)
  | Ok sections -> of_binary_sections sections
