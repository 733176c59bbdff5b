(* Child processes of the benchmark: spawned and reaped here, and
   killed on the way out so no run leaves one behind.

   A child's peak RSS is read from VmHWM in /proc/PID/status while the
   child is alive. Its rusage would not do: exec records the
   pre-exec address space's high-water mark, which is the parent's. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let live : int list ref = ref []

(* Exit code, or minus the OCaml signal number when killed. *)
let reap pid =
  let _, status = Unix.waitpid [] pid in
  live := List.filter (( <> ) pid) !live;
  match status with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> -abs s

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap pid) with Unix.Unix_error _ -> ())
    !live

let () = at_exit kill_all

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* Standard output goes to [stdout] (default /dev/null); standard
   error is appended to [log], so a failing child leaves its message
   behind. *)
let spawn ?stdout ~log prog args =
  let null = Lazy.force devnull in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      null
      (Option.value stdout ~default:null)
      err
  in
  Unix.close err;
  live := pid :: !live;
  pid

(* VmHWM of a live process, in KiB; 0 once it has exited. *)
let peak_rss_kb pid =
  match
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  with
  | exception Sys_error _ -> 0
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> Scanf.sscanf_opt v " %d kB" Fun.id
          | _ -> None)
        (String.split_on_char '\n' status)
      |> Option.value ~default:0

type ran = { out : string; code : int; peak_kb : int; wall_ns : int }

(* Run to completion, capturing standard output; another domain polls
   the child's peak RSS every 2 ms meanwhile. *)
let run ~log prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let started = now_ns () in
  let pid = spawn ~stdout:wr ~log prog args in
  Unix.close wr;
  let stop = Atomic.make false in
  let poller =
    Domain.spawn (fun () ->
        let peak = ref 0 in
        while not (Atomic.get stop) do
          peak := max !peak (peak_rss_kb pid);
          Unix.sleepf 0.002
        done;
        !peak)
  in
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let code = reap pid in
  let wall_ns = now_ns () - started in
  Atomic.set stop true;
  { out; code; peak_kb = Domain.join poller; wall_ns }

(* User + system CPU of a live process, from /proc/PID/stat (fields 14
   and 15, in clock ticks of 1/100 s). *)
let cpu_ns pid =
  match
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  with
  | exception Sys_error _ -> 0
  | stat -> (
      (* The command name may hold spaces; fields resume after ')'. *)
      let i = String.rindex stat ')' + 2 in
      match String.split_on_char ' ' (String.sub stat i (String.length stat - i)) with
      | _state :: fields -> (
          match List.filteri (fun i _ -> i = 10 || i = 11) fields with
          | [ u; s ] -> (int_of_string u + int_of_string s) * 10_000_000
          | _ -> 0)
      | [] -> 0)
