let temp_suffix = ".si-tmp"
let temp_path path = path ^ temp_suffix
let is_temp path = String.ends_with ~suffix:temp_suffix path

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

(* [close_out] runs inside the handler's scope: a channel flushes its
   last (often only) buffer at close, and that is where ENOSPC or EIO
   surfaces. *)
let write_atomic path contents =
  Si_check.blocking ~kind:"file-write" @@ fun () ->
  let tmp = temp_path path in
  match
    let oc = open_out_bin tmp in
    (try
       output_string oc contents;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error msg
