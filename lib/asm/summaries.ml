open Spike_support
open Spike_isa
open Spike_core

exception Error of { line : int; message : string }

let fail_at line fmt = Format.kasprintf (fun message -> raise (Error { line; message })) fmt

module L = Lexer

let fail c fmt = fail_at (L.line c) fmt

let reg c i =
  match Reg.of_key (L.key c i) with
  | r -> r
  | exception Not_found -> fail c "unknown register %s" (L.text c i)

let set_prefix = L.[| Ident; Equals; Lbrace |]
let directive = L.[| Directive |]
let directive_name = L.[| Directive; Ident |]

(* [used = { a0 , a1 }] — the brace list may be empty, and may end in a
   comma.  The hardwired zeros are accepted and dropped, as instructions'
   DEF/USE sets drop them: they never carry dataflow, and [f31] is outside
   the {!Regset} universe. *)
let set_line c =
  if not (L.starts_with c set_prefix) then fail c "expected '<field> = { ... }'";
  let n = L.length c in
  let member i acc =
    let r = reg c i in
    if Reg.is_zero r then acc else Regset.add r acc
  in
  let rec members i acc =
    if i + 1 = n && L.kind c i = L.Rbrace then acc
    else if i + 2 = n && L.kind c i = L.Ident && L.kind c (i + 1) = L.Rbrace then
      member i acc
    else if i + 1 < n && L.kind c i = L.Ident && L.kind c (i + 1) = L.Comma then
      members (i + 2) (member i acc)
    else fail c "malformed register set"
  in
  members 3 Regset.empty

type partial = {
  name : string;
  mutable used : Regset.t option;
  mutable defined : Regset.t option;
  mutable killed : Regset.t option;
}

let parse c =
  let entries = ref [] in
  let current = ref None in
  let finish p =
    let field what = function
      | Some s -> s
      | None -> fail c "summary %s is missing its %s set" p.name what
    in
    let x_used = field "used" p.used in
    let x_defined = field "defined" p.defined in
    let x_killed = field "killed" p.killed in
    entries := (p.name, { Psg.x_used; x_defined; x_killed }) :: !entries;
    current := None
  in
  while L.next_line c do
    match !current with
    | None ->
        if L.shape c directive_name && L.is c 0 "summary" then
          current := Some { name = L.text c 1; used = None; defined = None; killed = None }
        else fail c "expected .summary"
    | Some p ->
        if L.shape c directive && L.is c 0 "end" then finish p
        else begin
          let set = set_line c in
          if L.is c 0 "used" then p.used <- Some set
          else if L.is c 0 "defined" then p.defined <- Some set
          else if L.is c 0 "killed" then p.killed <- Some set
          else fail c "unknown field %s" (L.text c 0)
        end
  done;
  (match !current with
  | Some p -> fail_at 0 "summary %s not closed with .end" p.name
  | None -> ());
  List.rev !entries

let of_string source =
  match parse (L.create source) with
  | entries -> entries
  | exception L.Error { line; message } -> raise (Error { line; message })

let of_file path =
  let ic = open_in_bin path in
  let source =
    match really_input_string ic (in_channel_length ic) with
    | s ->
        close_in ic;
        s
    | exception e ->
        close_in_noerr ic;
        raise e
  in
  of_string source

let lookup entries name =
  List.find_map
    (fun (n, c) -> if String.equal n name then Some c else None)
    entries

let to_string entries =
  let buffer = Buffer.create 256 in
  let set s = Regset.to_string ~name:Reg.name s in
  List.iter
    (fun (name, (c : Psg.external_class)) ->
      Buffer.add_string buffer
        (Printf.sprintf ".summary %s\n  used = %s\n  defined = %s\n  killed = %s\n.end\n"
           name (set c.Psg.x_used) (set c.Psg.x_defined) (set c.Psg.x_killed)))
    entries;
  Buffer.contents buffer
