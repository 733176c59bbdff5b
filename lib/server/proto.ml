(* The pad-serving wire protocol: tagged field lists framed exactly
   like WAL records — [u32-le length][u32-le crc][payload] — so the
   transport layer (Si_wal.Tcp) catches a mangled byte by checksum and
   the parser below never sees damaged input, only well-formed field
   lists it can still refuse. Requests and responses are separate
   codecs: a tag is only ever decoded against its own direction. *)

module Record = Si_wal.Record
module Triple = Si_triple.Triple

type priority = Interactive | Bulk

type pattern = {
  p_subject : string option;
  p_predicate : string option;
  p_object : Triple.obj option;
}

let any = { p_subject = None; p_predicate = None; p_object = None }

type job_kind =
  | Compact
  | Checkpoint
  | Lint
  | Bulk_add of { count : int; predicate : string }
  | Capture of { path : string; with_bases : bool }
  | Apply of { path : string; strict : bool }

type request =
  | Ping
  | Open_pad of string
  | Pads
  | Select of { pattern : pattern; limit : int }
  | Count of pattern
  | Query of string
  | Add of Triple.t
  | Remove of Triple.t
  | Resolve of { pad : string; scrap : string }
  | Stats
  | Submit of { kind : job_kind; priority : priority }
  | Job_status of int
  | Shutdown

type job_state = Queued | Running | Done of string | Failed of string

type response =
  | Pong
  | Ok_done
  | Pad_list of string list
  | Triples of string list
  | Count_is of int
  | Rows of string list
  | Resolved of string
  | Stats_json of string
  | Accepted of int
  | Job of { job : int; state : job_state }
  | Overloaded of string
  | Err of string
  | Closing

(* --- field encoding -------------------------------------------------- *)

(* An optional string is a presence flag plus the value, so an absent
   field and a present-but-empty one stay distinct on the wire. *)
let opt_fields = function Some v -> [ "+"; v ] | None -> [ "-"; "" ]

let obj_fields = function
  | Triple.Resource r -> [ "r"; r ]
  | Triple.Literal l -> [ "l"; l ]

let obj_opt_fields = function
  | Some o -> obj_fields o
  | None -> [ "-"; "" ]

let pattern_fields p =
  opt_fields p.p_subject @ opt_fields p.p_predicate @ obj_opt_fields p.p_object

let triple_fields (t : Triple.t) =
  (t.subject :: t.predicate :: obj_fields t.object_ : string list)

let priority_field = function Interactive -> "i" | Bulk -> "b"

let kind_fields = function
  | Compact -> [ "compact" ]
  | Checkpoint -> [ "checkpoint" ]
  | Lint -> [ "lint" ]
  | Bulk_add { count; predicate } ->
      [ "bulk-add"; string_of_int count; predicate ]
  | Capture { path; with_bases } ->
      [ "capture"; path; (if with_bases then "b" else "-") ]
  | Apply { path; strict } ->
      [ "apply"; path; (if strict then "s" else "-") ]

let request_fields = function
  | Ping -> [ "ping" ]
  | Open_pad name -> [ "open"; name ]
  | Pads -> [ "pads" ]
  | Select { pattern; limit } ->
      ("select" :: string_of_int limit :: pattern_fields pattern : string list)
  | Count pattern -> "count" :: pattern_fields pattern
  | Query text -> [ "query"; text ]
  | Add t -> "add" :: triple_fields t
  | Remove t -> "rm" :: triple_fields t
  | Resolve { pad; scrap } -> [ "resolve"; pad; scrap ]
  | Stats -> [ "stats" ]
  | Submit { kind; priority } ->
      "submit" :: priority_field priority :: kind_fields kind
  | Job_status id -> [ "job?"; string_of_int id ]
  | Shutdown -> [ "bye" ]

let state_fields = function
  | Queued -> [ "queued" ]
  | Running -> [ "running" ]
  | Done summary -> [ "done"; summary ]
  | Failed reason -> [ "failed"; reason ]

let response_fields = function
  | Pong -> [ "pong" ]
  | Ok_done -> [ "ok" ]
  | Pad_list names -> "pads" :: names
  | Triples rows -> "triples" :: rows
  | Count_is n -> [ "count"; string_of_int n ]
  | Rows rows -> "rows" :: rows
  | Resolved text -> [ "res"; text ]
  | Stats_json json -> [ "stats"; json ]
  | Accepted job -> [ "accepted"; string_of_int job ]
  | Job { job; state } ->
      ("job" :: string_of_int job :: state_fields state : string list)
  | Overloaded reason -> [ "overload"; reason ]
  | Err reason -> [ "err"; reason ]
  | Closing -> [ "closing" ]

let frame fields =
  let buf = Buffer.create 64 in
  Record.encode buf (Record.encode_fields fields);
  Buffer.contents buf

let encode_request r = frame (request_fields r)
let encode_response r = frame (response_fields r)

(* --- field decoding -------------------------------------------------- *)

let opt_of = function
  | "+", v -> Ok (Some v)
  | "-", "" -> Ok None
  | flag, _ -> Error (Printf.sprintf "bad presence flag %S" flag)

let obj_of = function
  | "r", r -> Ok (Triple.Resource r)
  | "l", l -> Ok (Triple.Literal l)
  | kind, _ -> Error (Printf.sprintf "bad object kind %S" kind)

let obj_opt_of = function
  | "-", "" -> Ok None
  | pair -> Result.map Option.some (obj_of pair)

let pattern_of = function
  | [ sf; sv; pf; pv; kf; kv ] ->
      Result.bind (opt_of (sf, sv)) (fun p_subject ->
          Result.bind (opt_of (pf, pv)) (fun p_predicate ->
              Result.map
                (fun p_object -> { p_subject; p_predicate; p_object })
                (obj_opt_of (kf, kv))))
  | _ -> Error "pattern: expected six fields"

let triple_of = function
  | [ s; p; kf; kv ] ->
      Result.map (fun o -> Triple.make s p o) (obj_of (kf, kv))
  | _ -> Error "triple: expected four fields"

let priority_of = function
  | "i" -> Ok Interactive
  | "b" -> Ok Bulk
  | p -> Error (Printf.sprintf "bad priority %S" p)

let kind_of = function
  | [ "compact" ] -> Ok Compact
  | [ "checkpoint" ] -> Ok Checkpoint
  | [ "lint" ] -> Ok Lint
  | [ "bulk-add"; count; predicate ] -> (
      match int_of_string_opt count with
      | Some count when count >= 0 -> Ok (Bulk_add { count; predicate })
      | _ -> Error "bulk-add: bad count")
  | [ "capture"; path; flag ] -> (
      match flag with
      | "b" -> Ok (Capture { path; with_bases = true })
      | "-" -> Ok (Capture { path; with_bases = false })
      | _ -> Error "capture: bad bases flag")
  | [ "apply"; path; flag ] -> (
      match flag with
      | "s" -> Ok (Apply { path; strict = true })
      | "-" -> Ok (Apply { path; strict = false })
      | _ -> Error "apply: bad strict flag")
  | _ -> Error "bad job kind"

let request_of = function
  | [ "ping" ] -> Ok Ping
  | [ "open"; name ] -> Ok (Open_pad name)
  | [ "pads" ] -> Ok Pads
  | "select" :: limit :: rest -> (
      match int_of_string_opt limit with
      | Some limit ->
          Result.map
            (fun pattern -> Select { pattern; limit })
            (pattern_of rest)
      | None -> Error "select: bad limit")
  | "count" :: rest -> Result.map (fun p -> Count p) (pattern_of rest)
  | [ "query"; text ] -> Ok (Query text)
  | "add" :: rest -> Result.map (fun t -> Add t) (triple_of rest)
  | "rm" :: rest -> Result.map (fun t -> Remove t) (triple_of rest)
  | [ "resolve"; pad; scrap ] -> Ok (Resolve { pad; scrap })
  | [ "stats" ] -> Ok Stats
  | "submit" :: priority :: rest ->
      Result.bind (priority_of priority) (fun priority ->
          Result.map (fun kind -> Submit { kind; priority }) (kind_of rest))
  | [ "job?"; id ] -> (
      match int_of_string_opt id with
      | Some id -> Ok (Job_status id)
      | None -> Error "job?: bad id")
  | [ "bye" ] -> Ok Shutdown
  | tag :: _ -> Error (Printf.sprintf "unknown request tag %S" tag)
  | [] -> Error "empty request"

let state_of = function
  | [ "queued" ] -> Ok Queued
  | [ "running" ] -> Ok Running
  | [ "done"; summary ] -> Ok (Done summary)
  | [ "failed"; reason ] -> Ok (Failed reason)
  | _ -> Error "bad job state"

let response_of = function
  | [ "pong" ] -> Ok Pong
  | [ "ok" ] -> Ok Ok_done
  | "pads" :: names -> Ok (Pad_list names)
  | "triples" :: rows -> Ok (Triples rows)
  | [ "count"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Count_is n)
      | None -> Error "count: bad integer")
  | "rows" :: rows -> Ok (Rows rows)
  | [ "res"; text ] -> Ok (Resolved text)
  | [ "stats"; json ] -> Ok (Stats_json json)
  | [ "accepted"; job ] -> (
      match int_of_string_opt job with
      | Some job -> Ok (Accepted job)
      | None -> Error "accepted: bad id")
  | "job" :: job :: rest -> (
      match int_of_string_opt job with
      | Some job -> Result.map (fun state -> Job { job; state }) (state_of rest)
      | None -> Error "job: bad id")
  | [ "overload"; reason ] -> Ok (Overloaded reason)
  | [ "err"; reason ] -> Ok (Err reason)
  | [ "closing" ] -> Ok Closing
  | tag :: _ -> Error (Printf.sprintf "unknown response tag %S" tag)
  | [] -> Error "empty response"

let unframe raw of_fields =
  match Record.read raw ~pos:0 with
  | Record.Record { payload; next } ->
      if next <> String.length raw then Error "trailing bytes after frame"
      else Result.bind (Record.decode_fields payload) of_fields
  | Record.End -> Error "empty frame"
  | Record.Torn e | Record.Corrupt e ->
      Error (Printf.sprintf "damaged frame: %s" e)

let decode_request raw = unframe raw request_of
let decode_response raw = unframe raw response_of

(* Short operation names for metric series ("server.req.<op>"). *)
let request_ops =
  [|
    "ping"; "open"; "pads"; "select"; "count"; "query"; "add"; "remove";
    "resolve"; "stats"; "submit"; "job_status"; "shutdown";
  |]

let request_kind = function
  | Ping -> 0
  | Open_pad _ -> 1
  | Pads -> 2
  | Select _ -> 3
  | Count _ -> 4
  | Query _ -> 5
  | Add _ -> 6
  | Remove _ -> 7
  | Resolve _ -> 8
  | Stats -> 9
  | Submit _ -> 10
  | Job_status _ -> 11
  | Shutdown -> 12

let request_op req = request_ops.(request_kind req)
