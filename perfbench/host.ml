(* The host record printed with every result: figures from different
   machines are not comparable without it. *)

let read_lines path =
  try In_channel.with_open_text path In_channel.input_lines with Sys_error _ -> []

let cpuinfo_field lines key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some k when String.trim (String.sub l 0 k) = key ->
        Some (String.trim (String.sub l (k + 1) (String.length l - k - 1)))
      | _ -> None)
    lines

(* [nproc] honours the affinity mask, which /proc/cpuinfo does not. *)
let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> int_of_string_opt (String.trim l)
    | _ -> None
  with Unix.Unix_error _ -> None

let record () =
  let lines = read_lines "/proc/cpuinfo" in
  let flags =
    String.split_on_char ' ' (Option.value ~default:"" (cpuinfo_field lines "flags"))
  in
  let has f = List.mem f flags in
  Printf.sprintf
    "{\"nproc\": %s, \"recommended_domain_count\": %d, \"cpu_model\": %S, \
     \"avx2\": %b, \"fma\": %b, \"avx512f\": %b, \"ocaml\": %S, \
     \"word_size\": %d}"
    (match nproc () with Some n -> string_of_int n | None -> "null")
    (Domain.recommended_domain_count ())
    (Option.value ~default:"unknown" (cpuinfo_field lines "model name"))
    (has "avx2") (has "fma") (has "avx512f") Sys.ocaml_version Sys.word_size

(* Time the hypervisor gave other guests, as a share of all CPU time
   since [since] (a [/proc/stat] snapshot): a run that saw much of it is
   slower for reasons outside the program. *)
let cpu_snapshot () =
  match read_lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " ->
    String.split_on_char ' ' l
    |> List.filter_map int_of_string_opt
    |> Array.of_list
  | _ -> [||]

let steal_between a b =
  if Array.length a < 8 || Array.length b < 8 then nan
  else
    let d i = float_of_int (b.(i) - a.(i)) in
    let total = ref 0.0 in
    for i = 0 to 7 do total := !total +. d i done;
    if !total <= 0.0 then 0.0 else d 7 /. !total

let steal_share ~since = steal_between since (cpu_snapshot ())

(* The process's resident memory now, MB, from /proc/self/status. *)
let rss_mb () =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmRSS"; v ] ->
        Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:nan

(* The largest [rss_mb] sampled by [note_rss] since the caller last reset
   it. The timed loops sample it between operations, outside their
   timings. *)
let rss_peak = ref 0.0
let note_rss () = rss_peak := Float.max !rss_peak (rss_mb ())
