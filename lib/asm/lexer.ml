module Name_key = Spike_isa.Name_key

type kind =
  | Ident
  | Int
  | Directive
  | Comma
  | Colon
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Equals

exception Error of { line : int; message : string }

(* The current line's tokens live in four parallel buffers that are reused
   from line to line and grown by doubling. *)
type t = {
  src : string;
  mutable next : int;  (** offset where the next line starts *)
  mutable line : int;
  mutable length : int;
  mutable kinds : kind array;
  mutable starts : int array;
  mutable stops : int array;
  mutable values : int array;  (** an integer's value, a name's key *)
}

let create src =
  {
    src;
    next = 0;
    line = 0;
    length = 0;
    kinds = Array.make 16 Comma;
    starts = Array.make 16 0;
    stops = Array.make 16 0;
    values = Array.make 16 0;
  }

let grow t =
  let extend a fill =
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.kinds <- extend t.kinds Comma;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.values <- extend t.values 0

let[@inline] push t kind start stop value =
  let n = t.length in
  if n = Array.length t.kinds then grow t;
  Array.unsafe_set t.kinds n kind;
  Array.unsafe_set t.starts n start;
  Array.unsafe_set t.stops n stop;
  Array.unsafe_set t.values n value;
  t.length <- n + 1

let fail t fmt = Format.kasprintf (fun message -> raise (Error { line = t.line; message })) fmt

(* Every byte falls in one class; the scanner dispatches on the class of a
   token's first byte and runs first-order loops over the rest. *)
type byte_class =
  | Bad
  | Blank  (** space, tab, carriage return *)
  | Newline
  | Comment  (** [#] *)
  | Punct  (** one-byte tokens; {!punct_kinds} has their kind *)
  | Dot
  | Minus
  | Digit
  | Letter  (** letters, [_] and [$] *)

let classes =
  Array.init 256 (fun b ->
      match Char.chr b with
      | ' ' | '\t' | '\r' -> Blank
      | '\n' -> Newline
      | '#' -> Comment
      | ',' | ':' | '(' | ')' | '[' | ']' | '{' | '}' | '=' -> Punct
      | '.' -> Dot
      | '-' -> Minus
      | '0' .. '9' -> Digit
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> Letter
      | _ -> Bad)

let punct_kinds =
  Array.init 256 (fun b ->
      match Char.chr b with
      | ':' -> Colon
      | '(' -> Lparen
      | ')' -> Rparen
      | '[' -> Lbracket
      | ']' -> Rbracket
      | '{' -> Lbrace
      | '}' -> Rbrace
      | '=' -> Equals
      | _ -> Comma)

let[@inline] byte src i = Char.code (String.unsafe_get src i)
let[@inline] class_at src i = Array.unsafe_get classes (byte src i)

let[@inline] is_name_byte src i =
  match class_at src i with Letter | Digit -> true | _ -> false

let[@inline] is_digit src i = match class_at src i with Digit -> true | _ -> false

let rec blanks_end src n i =
  if i < n && (match class_at src i with Blank -> true | _ -> false) then blanks_end src n (i + 1)
  else i

let rec comment_end src n i = if i < n && byte src i <> 10 then comment_end src n (i + 1) else i

(* Up to 18 digits always fit in an int, so their accumulated value is
   exact; longer literals go through [int_of_string_opt], which decides
   the range. *)
let int_value t ~start ~first ~stop v =
  if stop - first <= 18 then if first > start then -v else v
  else
    let text = String.sub t.src start (stop - start) in
    match int_of_string_opt text with
    | Some v -> v
    | None -> fail t "integer %s out of range" text

(* Lex the line from offset [i] on and move [t.next] past its newline.
   Top-level recursion carrying its state in arguments, so lexing a line
   allocates nothing. *)
let rec scan t src n i =
  if i >= n then t.next <- i
  else
    let b = byte src i in
    match Array.unsafe_get classes b with
    | Blank -> scan t src n (blanks_end src n (i + 1))
    | Newline -> t.next <- i + 1
    | Comment -> scan t src n (comment_end src n i)
    | Punct ->
        push t (Array.unsafe_get punct_kinds b) i (i + 1) 0;
        scan t src n (i + 1)
    | Letter -> name t src n Ident i (i + 1) b
    | Digit -> number t src n i i (i + 1) (b - 48)
    | Minus when i + 1 < n && is_digit src (i + 1) ->
        number t src n i (i + 1) (i + 2) (byte src (i + 1) - 48)
    | Dot ->
        if i + 1 < n && is_name_byte src (i + 1) then
          name t src n Directive (i + 1) (i + 2) (byte src (i + 1))
        else fail t "expected directive name after '.'"
    | Bad | Minus -> fail t "unexpected character %C" (Char.chr b)

(* A name from [start]; [key] packs its bytes before [i]. *)
and name t src n kind start i key =
  if i < n && is_name_byte src i then
    name t src n kind start (i + 1) (Name_key.add key (byte src i))
  else begin
    push t kind start i (Name_key.seal key (i - start));
    scan t src n i
  end

(* An integer from [start] whose digits begin at [first]; [v] is the value
   of the digits before [i]. *)
and number t src n start first i v =
  if i < n && is_digit src i then
    number t src n start first (i + 1) ((10 * v) + byte src i - 48)
  else begin
    push t Int start i (int_value t ~start ~first ~stop:i v);
    scan t src n i
  end

let next_line t =
  t.length <- 0;
  let n = String.length t.src in
  while t.length = 0 && t.next < n do
    t.line <- t.line + 1;
    scan t t.src n t.next
  done;
  t.length > 0

let line t = t.line
let length t = t.length
let source t = t.src
let kind t i = t.kinds.(i)
let int t i = t.values.(i)
let key t i = t.values.(i)
let start t i = t.starts.(i)
let stop t i = t.stops.(i)
let text t i = String.sub t.src t.starts.(i) (t.stops.(i) - t.starts.(i))

(* Top-level loops: a local recursive function over [t] would allocate a
   closure per call. *)
let rec same_bytes src start s k len =
  k = len
  || (String.unsafe_get s k = String.unsafe_get src (start + k)
     && same_bytes src start s (k + 1) len)

let is t i s =
  let start = t.starts.(i) in
  let len = t.stops.(i) - start in
  len = String.length s && same_bytes t.src start s 0 len

let rec same_kinds t kinds k n =
  k = n || (t.kinds.(k) = kinds.(k) && same_kinds t kinds (k + 1) n)

let starts_with t kinds =
  Array.length kinds <= t.length && same_kinds t kinds 0 (Array.length kinds)

let shape t kinds = t.length = Array.length kinds && same_kinds t kinds 0 t.length
