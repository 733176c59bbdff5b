module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Model = Si_metamodel.Model
module Validate = Si_metamodel.Validate
module B = Bundle_model

type journal_entry = {
  seq : int;
  op : string;
  target : string;
  detail : string;
}

type journal_event =
  | Journal_logged of journal_entry
  | Journal_cleared
  | Journal_truncated_to of int

type t = {
  trim : Trim.t;
  bm : B.t;
  mutable journal_rev : journal_entry list;
  mutable journal_seq : int;
  mutable journal_observer : (journal_event -> unit) option;
}
type pad = Pad of string
type bundle = Bundle of string
type scrap = Scrap of string
type link = Link of string
type coordinate = { x : int; y : int }

let create ?store () =
  let trim = Trim.create ?store () in
  {
    trim;
    bm = B.install trim;
    journal_rev = [];
    journal_seq = 0;
    journal_observer = None;
  }

let on_journal t f = t.journal_observer <- Some f

let notify_journal t ev =
  match t.journal_observer with Some f -> f ev | None -> ()

let trim t = t.trim
let model t = t.bm
let triple_count t = Trim.size t.trim

(* Record one mutating operation. *)
let journal_log t op target detail =
  t.journal_seq <- t.journal_seq + 1;
  let entry = { seq = t.journal_seq; op; target; detail } in
  t.journal_rev <- entry :: t.journal_rev;
  notify_journal t (Journal_logged entry)

let atomically t body =
  let saved_rev = t.journal_rev and saved_seq = t.journal_seq in
  let restore () =
    t.journal_rev <- saved_rev;
    t.journal_seq <- saved_seq;
    (* Journal entries logged by the failed body were already observed
       (and possibly written ahead); tell the observer they are gone. *)
    notify_journal t (Journal_truncated_to saved_seq)
  in
  match Trim.transaction t.trim body with
  | Ok (Ok _ as ok) -> ok
  | Ok (Error _ as e) ->
      restore ();
      e
  | Error exn ->
      restore ();
      raise exn

let journal t = List.rev t.journal_rev
let journal_length t = List.length t.journal_rev

let clear_journal t =
  t.journal_rev <- [];
  t.journal_seq <- 0;
  notify_journal t Journal_cleared

(* Replay-side primitives: restore journal state without notifying the
   observer (the WAL already holds these events). *)

let append_journal_entry t entry =
  t.journal_rev <- entry :: t.journal_rev;
  if entry.seq > t.journal_seq then t.journal_seq <- entry.seq

let truncate_journal_to t seq =
  t.journal_rev <- List.filter (fun e -> e.seq <= seq) t.journal_rev;
  t.journal_seq <- seq

(* ------------------------------------------------------------------ ids *)

let pad_id (Pad id) = id
let bundle_id (Bundle id) = id
let scrap_id (Scrap id) = id
let link_id (Link id) = id

let typed_as t construct id =
  Model.instance_type t.trim id = Some construct.Model.construct_id

let pad_of_id t id = if typed_as t t.bm.B.slimpad id then Some (Pad id) else None
let bundle_of_id t id =
  if typed_as t t.bm.B.bundle id then Some (Bundle id) else None
let scrap_of_id t id =
  if typed_as t t.bm.B.scrap id then Some (Scrap id) else None
let link_of_id t id = if typed_as t t.bm.B.link id then Some (Link id) else None

(* Creation order: ids are "<prefix>-<n>" with n monotonically increasing
   (Trim.new_id); sort by the numeric suffix. *)
let id_ordinal id =
  match String.rindex_opt id '-' with
  | None -> max_int
  | Some i -> (
      match int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1))
      with
      | Some n -> n
      | None -> max_int)

(* An id with its ordinal, parsed once per sort rather than once per
   comparison. *)
let creation_key id = (id_ordinal id, id)

let compare_creation (m, a) (n, b) =
  match Int.compare m n with 0 -> String.compare a b | c -> c

let by_creation ids =
  List.map creation_key ids |> List.sort compare_creation |> List.map snd

(* One step down a bundle tree. A bundle lists its own scraps before its
   nested bundles, each in creation order, so comparing the step lists
   from the root down orders scraps as a pre-order walk of the tree
   does. *)
type step = Own_scrap of (int * string) | Nested_bundle of (int * string)

let compare_step a b =
  match (a, b) with
  | Own_scrap x, Own_scrap y | Nested_bundle x, Nested_bundle y ->
      compare_creation x y
  | Own_scrap _, Nested_bundle _ -> -1
  | Nested_bundle _, Own_scrap _ -> 1

(* ---------------------------------------------------------- coordinates *)

let coordinate_to_literal { x; y } = Printf.sprintf "%d,%d" x y

let coordinate_of_literal s =
  match String.split_on_char ',' s with
  | [ xs; ys ] -> (
      match (int_of_string_opt xs, int_of_string_opt ys) with
      | Some x, Some y -> Some { x; y }
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------- helpers *)

let literal t id pred ~default =
  Option.value (Trim.literal_of t.trim ~subject:id ~predicate:pred) ~default

let set_literal t id pred v =
  Model.set_property t.bm.B.model id pred (Triple.literal v)

let resources_of t id pred =
  Trim.select ~subject:id ~predicate:pred t.trim
  |> List.filter_map (fun (tr : Triple.t) ->
         match tr.object_ with
         | Triple.Resource r -> Some r
         | Triple.Literal _ -> None)

(* The subjects holding [id] through [pred]: the parents of a bundle or
   a scrap. *)
let subjects_pointing_at t pred id =
  List.map
    (fun (tr : Triple.t) -> tr.subject)
    (Trim.select ~predicate:pred ~object_:(Triple.resource id) t.trim)

(* --------------------------------------------------------- creation ops *)

let new_bundle t ~name ?pos ?width ?height () =
  let id = Model.new_instance t.bm.B.model t.bm.B.bundle () in
  set_literal t id B.bundle_name name;
  Option.iter (fun p -> set_literal t id B.bundle_pos (coordinate_to_literal p)) pos;
  Option.iter (fun w -> set_literal t id B.bundle_width (string_of_int w)) width;
  Option.iter
    (fun h -> set_literal t id B.bundle_height (string_of_int h))
    height;
  Bundle id

let create_slimpad t ~pad_name =
  let id = Model.new_instance t.bm.B.model t.bm.B.slimpad () in
  set_literal t id B.pad_name pad_name;
  let (Bundle root) = new_bundle t ~name:pad_name () in
  Model.set_property t.bm.B.model id B.root_bundle (Triple.resource root);
  journal_log t "create_slimpad" id (Printf.sprintf "pad %S" pad_name);
  Pad id

let create_bundle t ~name ?pos ?width ?height ~parent:(Bundle parent) () =
  let (Bundle id) = new_bundle t ~name ?pos ?width ?height () in
  Model.add_property t.bm.B.model parent B.nested_bundle (Triple.resource id);
  journal_log t "create_bundle" id
    (Printf.sprintf "bundle %S in <%s>" name parent);
  Bundle id

let create_scrap t ~name ?pos ~mark_id ~parent:(Bundle parent) () =
  let id = Model.new_instance t.bm.B.model t.bm.B.scrap () in
  set_literal t id B.scrap_name name;
  Option.iter (fun p -> set_literal t id B.scrap_pos (coordinate_to_literal p)) pos;
  let handle = Model.new_instance t.bm.B.model t.bm.B.mark_handle () in
  set_literal t handle B.mark_id mark_id;
  Model.set_property t.bm.B.model id B.scrap_mark (Triple.resource handle);
  Model.add_property t.bm.B.model parent B.bundle_content (Triple.resource id);
  journal_log t "create_scrap" id
    (Printf.sprintf "scrap %S (mark %s) in <%s>" name mark_id parent);
  Scrap id

(* --------------------------------------------------------------- lookup *)

let pad_name t (Pad id) = literal t id B.pad_name ~default:""

let pads t =
  Model.instances_of t.bm.B.model t.bm.B.slimpad
  |> List.map (fun id -> Pad id)
  |> List.sort (fun a b -> String.compare (pad_name t a) (pad_name t b))

let find_pad t name = List.find_opt (fun p -> pad_name t p = name) (pads t)

let root_bundle t (Pad id) =
  match Trim.resource_of t.trim ~subject:id ~predicate:B.root_bundle with
  | Some r -> Bundle r
  | None -> invalid_arg (Printf.sprintf "pad <%s> has no root bundle" id)

let update_pad_name t (Pad id) name =
  set_literal t id B.pad_name name;
  journal_log t "update_pad_name" id (Printf.sprintf "renamed to %S" name)

(* ---------------------------------------------------------- bundle ops *)

let bundle_name t (Bundle id) = literal t id B.bundle_name ~default:""

let bundle_pos t (Bundle id) =
  Option.bind
    (Trim.literal_of t.trim ~subject:id ~predicate:B.bundle_pos)
    coordinate_of_literal

let bundle_size t (Bundle id) =
  match
    ( Option.bind
        (Trim.literal_of t.trim ~subject:id ~predicate:B.bundle_width)
        int_of_string_opt,
      Option.bind
        (Trim.literal_of t.trim ~subject:id ~predicate:B.bundle_height)
        int_of_string_opt )
  with
  | Some w, Some h -> Some (w, h)
  | _ -> None

let scraps t (Bundle id) =
  by_creation (resources_of t id B.bundle_content)
  |> List.map (fun s -> Scrap s)

let nested_bundles t (Bundle id) =
  by_creation (resources_of t id B.nested_bundle)
  |> List.map (fun b -> Bundle b)

let bundle_parent t (Bundle id) =
  match subjects_pointing_at t B.nested_bundle id with
  | b :: _ -> Some (Bundle b)
  | [] -> None

let is_root_bundle t (Bundle id) =
  Trim.select ~predicate:B.root_bundle ~object_:(Triple.resource id) t.trim
  <> []

let update_bundle_name t (Bundle id) name =
  set_literal t id B.bundle_name name;
  journal_log t "update_bundle_name" id (Printf.sprintf "renamed to %S" name)

let move_bundle t (Bundle id) pos =
  set_literal t id B.bundle_pos (coordinate_to_literal pos);
  journal_log t "move_bundle" id ("to " ^ coordinate_to_literal pos)

let resize_bundle t (Bundle id) ~width ~height =
  set_literal t id B.bundle_width (string_of_int width);
  set_literal t id B.bundle_height (string_of_int height)

let rec descendant_bundles t b =
  b :: List.concat_map (descendant_bundles t) (nested_bundles t b)

let bundle_descendant_count t b =
  let all = descendant_bundles t b in
  (List.length all,
   List.fold_left (fun n bb -> n + List.length (scraps t bb)) 0 all)

let reparent_bundle t (Bundle id) ~parent:(Bundle new_parent) =
  if is_root_bundle t (Bundle id) then Error "cannot reparent a root bundle"
  else if
    List.exists
      (fun (Bundle d) -> d = new_parent)
      (descendant_bundles t (Bundle id))
  then Error "cannot nest a bundle inside itself or its descendants"
  else begin
    (* Detach from the old parent, attach to the new one. *)
    Trim.select ~predicate:B.nested_bundle ~object_:(Triple.resource id) t.trim
    |> List.iter (fun tr -> ignore (Trim.remove t.trim tr));
    Model.add_property t.bm.B.model new_parent B.nested_bundle
      (Triple.resource id);
    Ok ()
  end

(* ----------------------------------------------------------- scrap ops *)

let scrap_name t (Scrap id) = literal t id B.scrap_name ~default:""

let scrap_pos t (Scrap id) =
  Option.bind
    (Trim.literal_of t.trim ~subject:id ~predicate:B.scrap_pos)
    coordinate_of_literal

let scrap_handle t (Scrap id) =
  Trim.resource_of t.trim ~subject:id ~predicate:B.scrap_mark

let scrap_mark_id t s =
  match scrap_handle t s with
  | Some handle -> literal t handle B.mark_id ~default:""
  | None -> ""

let scrap_parent t (Scrap id) =
  match subjects_pointing_at t B.bundle_content id with
  | b :: _ -> Some (Bundle b)
  | [] -> None

(* All scraps of the pad's bundle tree, in pre-order: each bundle's own
   scraps before its nested bundles, both in creation order. Two selects
   per bundle. *)
let pad_scraps t pad =
  let rec walk b = scraps t b @ List.concat_map walk (nested_bundles t b) in
  walk (root_bundle t pad)

(* The scraps [ids] where the pad's tree holds them, in [pad_scraps]'
   order. Walks up from each id, so the cost follows [ids], not the
   tree. *)
let scraps_held t pad ids =
  let (Bundle root) = root_bundle t pad in
  (* The paths from [root] down to a bundle, each as steps deepest
     first; none when no path reaches [root]. A bundle met again on the
     way up is a nestedBundle cycle: a root that reaches one has no
     finite walk, so cutting the cycle can only drop paths from bundles
     no root reaches. *)
  let paths = Hashtbl.create 16 in
  let rec paths_to above b =
    if b = root then [ [] ]
    else
      match Hashtbl.find_opt paths b with
      | Some ps -> ps
      | None when List.mem b above -> []
      | None ->
          let step = Nested_bundle (creation_key b) in
          let ps =
            List.concat_map
              (fun parent ->
                List.map (fun p -> step :: p) (paths_to (b :: above) parent))
              (subjects_pointing_at t B.nested_bundle b)
          in
          Hashtbl.replace paths b ps;
          ps
  in
  List.concat_map
    (fun s ->
      let step = Own_scrap (creation_key s) in
      List.concat_map
        (fun holder ->
          List.map
            (fun p -> (List.rev (step :: p), Scrap s))
            (paths_to [] holder))
        (subjects_pointing_at t B.bundle_content s))
    ids
  |> List.sort (fun (a, _) (b, _) -> List.compare compare_step a b)
  |> List.map snd

(* Walking up costs a few selects per match; walking down costs two
   selects per bundle, fewer than one per scrap. The two cost the same
   near 19% of names matching on the 200-patient worksheet (measured over
   the sharded store the lock-free one replaced), and near 30% on a
   6-patient one: up is taken while at most one name in [walk_up_share]
   matches. *)
let walk_up_share = 5

let scraps_named t pad matches =
  let rows = Trim.select ~predicate:B.scrap_name t.trim in
  let hits =
    List.filter_map
      (fun (tr : Triple.t) ->
        match tr.object_ with
        | Triple.Literal name when matches name -> Some tr.subject
        | Triple.Literal _ | Triple.Resource _ -> None)
      rows
  in
  (* A subject with two names answers to the one [scrap_name] reads. *)
  let named s = matches (scrap_name t (Scrap s)) in
  if walk_up_share * List.length hits <= List.length rows then
    scraps_held t pad (List.sort_uniq String.compare hits |> List.filter named)
  else
    let names = Hashtbl.create (List.length rows) in
    List.iter
      (fun (tr : Triple.t) ->
        match tr.object_ with
        | Triple.Literal name -> Hashtbl.add names tr.subject name
        | Triple.Resource _ -> ())
      rows;
    List.filter
      (fun (Scrap s) ->
        match Hashtbl.find_all names s with
        | [] -> false
        | [ name ] -> matches name
        | _ :: _ :: _ -> named s)
      (pad_scraps t pad)

let update_scrap_name t (Scrap id) name =
  set_literal t id B.scrap_name name;
  journal_log t "update_scrap_name" id (Printf.sprintf "renamed to %S" name)

let move_scrap t (Scrap id) pos =
  set_literal t id B.scrap_pos (coordinate_to_literal pos);
  journal_log t "move_scrap" id ("to " ^ coordinate_to_literal pos)

let set_scrap_mark t s mark =
  match scrap_handle t s with
  | Some handle -> set_literal t handle B.mark_id mark
  | None ->
      let handle = Model.new_instance t.bm.B.model t.bm.B.mark_handle () in
      set_literal t handle B.mark_id mark;
      Model.set_property t.bm.B.model (scrap_id s) B.scrap_mark
        (Triple.resource handle)

let reparent_scrap t (Scrap id) ~parent:(Bundle new_parent) =
  Trim.select ~predicate:B.bundle_content ~object_:(Triple.resource id) t.trim
  |> List.iter (fun tr -> ignore (Trim.remove t.trim tr));
  Model.add_property t.bm.B.model new_parent B.bundle_content
    (Triple.resource id);
  journal_log t "reparent_scrap" id (Printf.sprintf "into <%s>" new_parent)

(* ----------------------------------------------------- links (§6 ext.) *)

let links t =
  Model.instances_of t.bm.B.model t.bm.B.link
  |> by_creation
  |> List.map (fun id -> Link id)

let link_ends t (Link id) =
  match
    ( Trim.resource_of t.trim ~subject:id ~predicate:B.link_from,
      Trim.resource_of t.trim ~subject:id ~predicate:B.link_to )
  with
  | Some f, Some x -> Some (Scrap f, Scrap x)
  | _ -> None

let link_label t (Link id) =
  Trim.literal_of t.trim ~subject:id ~predicate:B.link_label

let link_scraps t ?label ~from_:(Scrap f) ~to_:(Scrap x) () =
  let id = Model.new_instance t.bm.B.model t.bm.B.link () in
  Model.set_property t.bm.B.model id B.link_from (Triple.resource f);
  Model.set_property t.bm.B.model id B.link_to (Triple.resource x);
  Option.iter (fun l -> set_literal t id B.link_label l) label;
  journal_log t "link_scraps" id (Printf.sprintf "<%s> -> <%s>" f x);
  Link id

let links_of_scrap t (Scrap id) =
  links t
  |> List.filter (fun l ->
         match link_ends t l with
         | Some (Scrap f, Scrap x) -> f = id || x = id
         | None -> false)

let delete_link t (Link id) =
  ignore (Model.delete_instance t.bm.B.model id)

(* -------------------------------------------------- decorations (Fig 4) *)

type decoration = Decoration of string

let add_decoration t (Bundle parent) ~kind ?pos () =
  let id = Model.new_instance t.bm.B.model t.bm.B.decoration () in
  set_literal t id B.decor_kind kind;
  Option.iter
    (fun p -> set_literal t id B.decor_pos (coordinate_to_literal p))
    pos;
  Model.add_property t.bm.B.model parent B.bundle_decoration
    (Triple.resource id);
  Decoration id

let decorations t (Bundle id) =
  by_creation (resources_of t id B.bundle_decoration)
  |> List.map (fun d -> Decoration d)

let decoration_kind t (Decoration id) = literal t id B.decor_kind ~default:""

let decoration_pos t (Decoration id) =
  Option.bind
    (Trim.literal_of t.trim ~subject:id ~predicate:B.decor_pos)
    coordinate_of_literal

let move_decoration t (Decoration id) pos =
  set_literal t id B.decor_pos (coordinate_to_literal pos)

let delete_decoration t (Decoration id) =
  ignore (Model.delete_instance t.bm.B.model id)

(* ------------------------------------------------------------ deletion *)

let delete_scrap t (Scrap id) =
  List.iter (delete_link t) (links_of_scrap t (Scrap id));
  (match scrap_handle t (Scrap id) with
  | Some handle -> ignore (Model.delete_instance t.bm.B.model handle)
  | None -> ());
  journal_log t "delete_scrap" id "";
  ignore (Model.delete_instance t.bm.B.model id)

let rec delete_bundle_tree t b =
  List.iter (delete_scrap t) (scraps t b);
  List.iter (delete_decoration t) (decorations t b);
  List.iter (delete_bundle_tree t) (nested_bundles t b);
  ignore (Model.delete_instance t.bm.B.model (bundle_id b))

let delete_bundle t b =
  if is_root_bundle t b then
    Error "cannot delete a pad's root bundle; delete the pad"
  else begin
    journal_log t "delete_bundle" (bundle_id b) "";
    delete_bundle_tree t b;
    Ok ()
  end

let delete_slimpad t (Pad id) =
  journal_log t "delete_slimpad" id "";
  delete_bundle_tree t (root_bundle t (Pad id));
  ignore (Model.delete_instance t.bm.B.model id)

(* ---------------------------------------------------- annotations (§6) *)

let annotate_scrap t (Scrap id) text =
  Model.add_property t.bm.B.model id B.annotation (Triple.literal text);
  journal_log t "annotate_scrap" id (Printf.sprintf "note %S" text)

let annotations t (Scrap id) =
  Trim.select ~subject:id ~predicate:B.annotation t.trim
  |> List.filter_map (fun (tr : Triple.t) ->
         match tr.object_ with
         | Triple.Literal l -> Some l
         | Triple.Resource _ -> None)
  |> List.sort String.compare

let remove_annotation t (Scrap id) text =
  Trim.remove t.trim (Triple.make id B.annotation (Triple.literal text))

(* ------------------------------------------------------ templates (§6) *)

let set_template t (Bundle id) flag =
  if flag then set_literal t id B.is_template "true"
  else
    Trim.select ~subject:id ~predicate:B.is_template t.trim
    |> List.iter (fun tr -> ignore (Trim.remove t.trim tr))

let is_template t (Bundle id) =
  Trim.literal_of t.trim ~subject:id ~predicate:B.is_template = Some "true"

let templates t =
  Model.instances_of t.bm.B.model t.bm.B.bundle
  |> List.filter (fun id -> is_template t (Bundle id))
  |> by_creation
  |> List.map (fun id -> Bundle id)

let rec copy_bundle_into t src ~name ~parent =
  (* Snapshot the source's children before creating the copy: when the
     copy lands inside the source's own subtree (instantiating a template
     into itself), reading the lists afterwards would include the fresh
     copy and recurse forever. *)
  let src_scraps = scraps t src in
  let src_decorations = decorations t src in
  let src_nested = nested_bundles t src in
  let copy =
    create_bundle t ~name ?pos:(bundle_pos t src)
      ?width:(Option.map fst (bundle_size t src))
      ?height:(Option.map snd (bundle_size t src))
      ~parent ()
  in
  List.iter
    (fun s ->
      let copied =
        create_scrap t ~name:(scrap_name t s) ?pos:(scrap_pos t s)
          ~mark_id:(scrap_mark_id t s) ~parent:copy ()
      in
      List.iter (annotate_scrap t copied) (annotations t s))
    src_scraps;
  List.iter
    (fun d ->
      ignore
        (add_decoration t copy ~kind:(decoration_kind t d)
           ?pos:(decoration_pos t d) ()))
    src_decorations;
  List.iter
    (fun nested ->
      ignore
        (copy_bundle_into t nested ~name:(bundle_name t nested) ~parent:copy))
    src_nested;
  copy

let instantiate_template t ~template ~name ~parent =
  if not (is_template t template) then
    Error (Printf.sprintf "<%s> is not a template" (bundle_id template))
  else begin
    let copy = copy_bundle_into t template ~name ~parent in
    set_template t copy false;
    journal_log t "instantiate_template" (bundle_id copy)
      (Printf.sprintf "from <%s>" (bundle_id template));
    Ok copy
  end

(* --------------------------------------------------------- persistence *)

let journal_to_xml t =
  Si_xmlk.Node.element "journal"
    (List.map
       (fun e ->
         Si_xmlk.Node.element "entry"
           ~attrs:
             [
               ("seq", string_of_int e.seq); ("op", e.op);
               ("target", e.target);
             ]
           (if e.detail = "" then [] else [ Si_xmlk.Node.text e.detail ]))
       (journal t))

let load_journal t node =
  match node with
  | Si_xmlk.Node.Element { name = "journal"; _ } ->
      let entries =
        List.filter_map
          (fun entry ->
            match
              ( Option.bind (Si_xmlk.Node.attr "seq" entry) int_of_string_opt,
                Si_xmlk.Node.attr "op" entry,
                Si_xmlk.Node.attr "target" entry )
            with
            | Some seq, Some op, Some target ->
                Some
                  { seq; op; target;
                    detail = Si_xmlk.Node.text_content entry }
            | _ -> None)
          (Si_xmlk.Node.find_children "entry" node)
      in
      t.journal_rev <- List.rev entries;
      t.journal_seq <-
        List.fold_left (fun m e -> max m e.seq) 0 entries;
      Ok ()
  | _ -> Error "expected a <journal> element"

let validate t = Validate.check t.bm.B.model
let to_xml t = Trim.to_xml t.trim

let of_trim trim =
  {
    trim;
    bm = B.install trim;
    journal_rev = [];
    journal_seq = 0;
    journal_observer = None;
  }

let of_xml ?store root = Result.map of_trim (Trim.of_xml ?store root)

let save t path = Trim.save t.trim path

let load path =
  match Trim.load path with
  | Error _ as e -> e
  | Ok trim ->
      Ok {
        trim;
        bm = B.install trim;
        journal_rev = [];
        journal_seq = 0;
        journal_observer = None;
      }

let equal_contents a b = Trim.equal_contents a.trim b.trim
