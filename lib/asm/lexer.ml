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
  mutable lens : int array;
  mutable values : int array;
}

let create src =
  {
    src;
    next = 0;
    line = 0;
    length = 0;
    kinds = Array.make 16 Comma;
    starts = Array.make 16 0;
    lens = Array.make 16 0;
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
  t.lens <- extend t.lens 0;
  t.values <- extend t.values 0

let push t kind start len value =
  let n = t.length in
  if n = Array.length t.kinds then grow t;
  t.kinds.(n) <- kind;
  t.starts.(n) <- start;
  t.lens.(n) <- len;
  t.values.(n) <- value;
  t.length <- n + 1

let fail t fmt = Format.kasprintf (fun message -> raise (Error { line = t.line; message })) fmt

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_while p src i =
  if i < String.length src && p (String.unsafe_get src i) then skip_while p src (i + 1)
  else i

(* Up to 18 digits always fit in an int, so they are accumulated directly;
   longer literals go through [int_of_string_opt], which decides the range. *)
let int_value t ~start ~first ~stop =
  if stop - first <= 18 then begin
    let v = ref 0 in
    for k = first to stop - 1 do
      v := (10 * !v) + (Char.code (String.unsafe_get t.src k) - Char.code '0')
    done;
    if first > start then - !v else !v
  end
  else
    let text = String.sub t.src start (stop - start) in
    match int_of_string_opt text with
    | Some v -> v
    | None -> fail t "integer %s out of range" text

(* Lex the line from offset [i] on and move [t.next] past its newline.
   Top-level recursion, so lexing a line allocates nothing. *)
let rec scan t i =
  let src = t.src in
  if i >= String.length src then t.next <- i
  else
    match String.unsafe_get src i with
    | '\n' -> t.next <- i + 1
    | ' ' | '\t' | '\r' -> scan t (i + 1)
    | '#' -> scan t (skip_while (fun c -> c <> '\n') src i)
    | ',' -> punct t Comma i
    | ':' -> punct t Colon i
    | '(' -> punct t Lparen i
    | ')' -> punct t Rparen i
    | '[' -> punct t Lbracket i
    | ']' -> punct t Rbracket i
    | '{' -> punct t Lbrace i
    | '}' -> punct t Rbrace i
    | '=' -> punct t Equals i
    | '.' ->
        let stop = skip_while is_ident_char src (i + 1) in
        if stop = i + 1 then fail t "expected directive name after '.'";
        push t Directive (i + 1) (stop - i - 1) 0;
        scan t stop
    | '0' .. '9' -> number t i i
    | '-' when i + 1 < String.length src && is_digit (String.unsafe_get src (i + 1)) ->
        number t i (i + 1)
    | c when is_ident_start c ->
        let stop = skip_while is_ident_char src (i + 1) in
        push t Ident i (stop - i) 0;
        scan t stop
    | c -> fail t "unexpected character %C" c

and punct t kind i =
  push t kind i 1 0;
  scan t (i + 1)

and number t start first =
  let stop = skip_while is_digit t.src first in
  push t Int start (stop - start) (int_value t ~start ~first ~stop);
  scan t stop

let next_line t =
  t.length <- 0;
  while t.length = 0 && t.next < String.length t.src do
    t.line <- t.line + 1;
    scan t t.next
  done;
  t.length > 0

let line t = t.line
let length t = t.length
let kind t i = t.kinds.(i)
let int t i = t.values.(i)
let key t i = Spike_isa.Name_key.of_span t.src t.starts.(i) t.lens.(i)
let text t i = String.sub t.src t.starts.(i) t.lens.(i)

let is t i s =
  let len = t.lens.(i) in
  len = String.length s
  &&
  let start = t.starts.(i) in
  let rec same k = k = len || (s.[k] = t.src.[start + k] && same (k + 1)) in
  same 0

let starts_with t kinds =
  let n = Array.length kinds in
  n <= t.length
  &&
  let rec same k = k = n || (t.kinds.(k) = kinds.(k) && same (k + 1)) in
  same 0

let shape t kinds = t.length = Array.length kinds && starts_with t kinds
