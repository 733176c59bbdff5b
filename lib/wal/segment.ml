(* Sealed archive pieces for WAL shipping and point-in-time recovery.

   A segment file is [seg_magic][u32 term][u32 first][u32 count] then
   [count] framed records (Record.encode) — the shipped records with
   sequence numbers [first .. first+count-1]. A base file is
   [base_magic][u32 term][u32 seq] and one framed record: the full
   snapshot of the state after applying records [1..seq]. Both are
   written to a temp file and renamed, so a file that exists is sealed:
   any decode failure inside it is damage, never a torn append. *)

type entry = {
  seg_term : int;
  seg_first : int;
  seg_last : int;
  seg_file : string;
}

type base = { base_term : int; base_seq : int; base_file : string }

let seg_magic = "SISEG\x00\x00\x01"
let base_magic = "SISBA\x00\x00\x01"
let magic_size = String.length seg_magic

let seg_name ~term ~first ~last =
  Printf.sprintf "seg-%08d-%08d-%08d.seg" term first last

let base_name ~term ~seq = Printf.sprintf "base-%08d-%08d.base" term seq

(* --- file name parsing --------------------------------------------- *)

type named = Named_segment of entry | Named_base of base | Named_other

let chop ~prefix ~suffix s =
  let pl = String.length prefix and sl = String.length suffix in
  if
    String.length s > pl + sl
    && String.sub s 0 pl = prefix
    && Filename.check_suffix s suffix
  then Some (String.sub s pl (String.length s - pl - sl))
  else None

let dashed_ints body =
  let parts = String.split_on_char '-' body in
  let ints = List.filter_map int_of_string_opt parts in
  if List.length ints = List.length parts then Some ints else None

let parse_name file =
  match chop ~prefix:"seg-" ~suffix:".seg" file with
  | Some body -> (
      match dashed_ints body with
      | Some [ term; first; last ] ->
          Named_segment
            { seg_term = term; seg_first = first; seg_last = last;
              seg_file = file }
      | _ -> Named_other)
  | None -> (
      match chop ~prefix:"base-" ~suffix:".base" file with
      | Some body -> (
          match dashed_ints body with
          | Some [ term; seq ] ->
              Named_base { base_term = term; base_seq = seq; base_file = file }
          | _ -> Named_other)
      | None -> Named_other)

(* --- I/O helpers --------------------------------------------------- *)

let protect_io f = try Ok (f ()) with Sys_error msg -> Error msg

let ensure_dir dir =
  protect_io (fun () ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        raise (Sys_error (dir ^ ": not a directory")))

(* --- writing ------------------------------------------------------- *)

let seal ~dir ~term ~first payloads =
  match payloads with
  | [] -> Error "cannot seal an empty segment"
  | _ -> (
      let last = first + List.length payloads - 1 in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf seg_magic;
      Record.add_u32 buf term;
      Record.add_u32 buf first;
      Record.add_u32 buf (List.length payloads);
      List.iter (Record.encode buf) payloads;
      let file = seg_name ~term ~first ~last in
      let path = Filename.concat dir file in
      match Si_io.Io.write_atomic path (Buffer.contents buf) with
      | Error _ as e -> e
      | Ok () ->
          Ok
            { seg_term = term; seg_first = first; seg_last = last;
              seg_file = file })

let write_base ~dir ~term ~seq payload =
  let buf = Buffer.create (String.length payload + 32) in
  Buffer.add_string buf base_magic;
  Record.add_u32 buf term;
  Record.add_u32 buf seq;
  Record.encode buf payload;
  let file = base_name ~term ~seq in
  let path = Filename.concat dir file in
  match Si_io.Io.write_atomic path (Buffer.contents buf) with
  | Error _ as e -> e
  | Ok () -> Ok { base_term = term; base_seq = seq; base_file = file }

let import_base ~dir ~term ~seq payload =
  Result.bind (ensure_dir dir) (fun () -> write_base ~dir ~term ~seq payload)

(* --- reading ------------------------------------------------------- *)

let header_err file detail = Error (Printf.sprintf "%s: %s" file detail)

let read ~dir entry =
  match Si_io.Io.read_file (Filename.concat dir entry.seg_file) with
  | Error _ as e -> e
  | Ok contents ->
      let file = entry.seg_file in
      if String.length contents < magic_size + 12 then
        header_err file "truncated header"
      else if String.sub contents 0 magic_size <> seg_magic then
        header_err file "bad magic"
      else begin
        let term = Record.get_u32 contents magic_size in
        let first = Record.get_u32 contents (magic_size + 4) in
        let count = Record.get_u32 contents (magic_size + 8) in
        if term <> entry.seg_term || first <> entry.seg_first then
          header_err file "header disagrees with file name"
        else if count <> entry.seg_last - entry.seg_first + 1 then
          header_err file "record count disagrees with file name"
        else
          match Record.read_all contents ~pos:(magic_size + 12) with
          | Error e -> header_err file e
          | Ok (_, _, Some torn) ->
              (* Sealed at creation: a short read is damage, not a crash. *)
              header_err file (Printf.sprintf "damaged: %s" torn)
          | Ok (payloads, _, None) ->
              if List.length payloads <> count then
                header_err file "wrong number of records"
              else Ok payloads
      end

let read_base ~dir b =
  match Si_io.Io.read_file (Filename.concat dir b.base_file) with
  | Error _ as e -> e
  | Ok contents ->
      let file = b.base_file in
      if String.length contents < magic_size + 8 then
        header_err file "truncated header"
      else if String.sub contents 0 magic_size <> base_magic then
        header_err file "bad magic"
      else begin
        let term = Record.get_u32 contents magic_size in
        let seq = Record.get_u32 contents (magic_size + 4) in
        if term <> b.base_term || seq <> b.base_seq then
          header_err file "header disagrees with file name"
        else
          match Record.read contents ~pos:(magic_size + 8) with
          | Record.Record { payload; next } ->
              if next <> String.length contents then
                header_err file "trailing bytes after the snapshot record"
              else Ok payload
          | Record.End -> header_err file "missing snapshot record"
          | Record.Torn e | Record.Corrupt e ->
              header_err file (Printf.sprintf "damaged: %s" e)
      end

(* --- the archive index --------------------------------------------- *)

type index = { segments : entry list; bases : base list }

let empty_index = { segments = []; bases = [] }

let index dir =
  if not (Sys.file_exists dir) then Ok empty_index
  else
    match protect_io (fun () -> Sys.readdir dir) with
    | Error _ as e -> e
    | Ok files ->
        let segments = ref [] and bases = ref [] in
        Array.iter
          (fun file ->
            match parse_name file with
            | Named_segment e -> segments := e :: !segments
            | Named_base b -> bases := b :: !bases
            | Named_other -> ())
          files;
        Ok
          {
            segments =
              List.sort
                (fun a b -> compare a.seg_first b.seg_first)
                !segments;
            bases =
              List.sort (fun a b -> compare a.base_seq b.base_seq) !bases;
          }

let max_seq idx =
  let seg = List.fold_left (fun m e -> max m e.seg_last) 0 idx.segments in
  List.fold_left (fun m b -> max m b.base_seq) seg idx.bases

let max_term idx =
  let seg = List.fold_left (fun m e -> max m e.seg_term) 0 idx.segments in
  List.fold_left (fun m b -> max m b.base_term) seg idx.bases

(* --- verification (drives lint rule SL306) ------------------------- *)

type problem = { problem_file : string; problem_detail : string }

let verify dir =
  match index dir with
  | Error _ as e -> e
  | Ok idx ->
      let problems = ref [] in
      let report file detail =
        problems := { problem_file = file; problem_detail = detail } :: !problems
      in
      let strip_file msg file =
        (* read/read_base prefix errors with the file name; drop it. *)
        let prefix = file ^ ": " in
        let pl = String.length prefix in
        if String.length msg > pl && String.sub msg 0 pl = prefix then
          String.sub msg pl (String.length msg - pl)
        else msg
      in
      List.iter
        (fun e ->
          match read ~dir e with
          | Ok _ -> ()
          | Error msg -> report e.seg_file (strip_file msg e.seg_file))
        idx.segments;
      List.iter
        (fun b ->
          match read_base ~dir b with
          | Ok _ -> ()
          | Error msg -> report b.base_file (strip_file msg b.base_file))
        idx.bases;
      (* Sequence continuity: a hole between consecutive segments is only
         restorable when a base covers everything before the later one. *)
      let bridged upto =
        List.exists (fun b -> b.base_seq >= upto) idx.bases
      in
      (* A retention-pruned archive drops its oldest segments, so the
         earliest surviving one may start past 1 — legitimate exactly
         when a retained base covers the missing prefix. An uncovered
         leading hole means files were lost, not pruned. *)
      (match idx.segments with
      | first :: _ when first.seg_first > 1 && not (bridged (first.seg_first - 1))
        ->
          report first.seg_file
            (Printf.sprintf
               "leading gap: records 1..%d are in no segment and no base \
                covers them"
               (first.seg_first - 1))
      | _ -> ());
      let rec continuity = function
        | a :: (b :: _ as rest) ->
            if b.seg_first > a.seg_last + 1 && not (bridged (b.seg_first - 1))
            then
              report b.seg_file
                (Printf.sprintf
                   "sequence gap: records %d..%d are in no segment and no \
                    base covers them"
                   (a.seg_last + 1) (b.seg_first - 1));
            if b.seg_term < a.seg_term then
              report b.seg_file
                (Printf.sprintf "generation regression: term %d after term %d"
                   b.seg_term a.seg_term);
            continuity rest
        | _ -> ()
      in
      continuity idx.segments;
      Ok (List.rev !problems)

(* --- retention ------------------------------------------------------ *)

type prune_report = {
  prune_cutoff : int;
  pruned_segments : string list;
  pruned_bases : string list;
}

let prune ~dir ~keep =
  if keep < 0 then Error "keep-window must be non-negative"
  else
    match index dir with
    | Error _ as e -> e
    | Ok idx -> (
        match List.rev idx.bases with
        | [] ->
            (* Nothing proves any prefix restorable without a base, so
               nothing may go. *)
            Ok { prune_cutoff = 0; pruned_segments = []; pruned_bases = [] }
        | newest :: _ ->
            let cutoff = max 0 (newest.base_seq - keep) in
            (* A segment goes when every record in it is at or below the
               cutoff (the retained base covers all of them); a base goes
               when it is below the cutoff and not the newest one. *)
            let dead_segments =
              List.filter (fun e -> e.seg_last <= cutoff) idx.segments
            in
            let dead_bases =
              List.filter
                (fun b ->
                  b.base_seq < cutoff && b.base_file <> newest.base_file)
                idx.bases
            in
            let files =
              List.map (fun e -> e.seg_file) dead_segments
              @ List.map (fun b -> b.base_file) dead_bases
            in
            protect_io (fun () ->
                List.iter
                  (fun file -> Sys.remove (Filename.concat dir file))
                  files;
                {
                  prune_cutoff = cutoff;
                  pruned_segments = List.map (fun e -> e.seg_file) dead_segments;
                  pruned_bases = List.map (fun b -> b.base_file) dead_bases;
                }))

(* --- point-in-time restore planning -------------------------------- *)

let restore_plan idx ~at =
  if at < 0 then Error "restore point must be non-negative"
  else
    (* Newest base at or before the cut, then contiguous segment
       coverage of (base_seq, at]. *)
    match
      List.fold_left
        (fun best b -> if b.base_seq <= at then Some b else best)
        None idx.bases
    with
    | None -> Error (Printf.sprintf "no base snapshot at or before seq %d" at)
    | Some b ->
        let needed_from = b.base_seq + 1 in
        if at < needed_from then Ok (b, [])
        else begin
          let covering =
            List.filter
              (fun e -> e.seg_last >= needed_from && e.seg_first <= at)
              idx.segments
          in
          let rec check next = function
            | [] ->
                if next > at then Ok (b, covering)
                else
                  Error
                    (Printf.sprintf
                       "archive is missing records %d..%d for a restore at %d"
                       next at at)
            | e :: rest ->
                if e.seg_first > next then
                  Error
                    (Printf.sprintf
                       "archive is missing records %d..%d for a restore at %d"
                       next (e.seg_first - 1) at)
                else check (max next (e.seg_last + 1)) rest
          in
          check needed_from covering
        end
