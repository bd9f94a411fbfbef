(** Short names packed into one immediate int.

    Register names and mnemonics are at most 7 bytes long.  Packing a
    name's length and bytes into an int gives a key that two spans share
    exactly when their bytes are equal, so a parser can resolve a name
    straight from a span of its source text: no [String.sub], no string
    hashing. *)

val of_span : string -> int -> int -> int
(** [of_span s pos len] is the key of [String.sub s pos len], or [-1] when
    [len > 7].  Keys of names are non-negative. *)

val of_string : string -> int
(** [of_string s] is [of_span s 0 (String.length s)]. *)

module Table : Hashtbl.S with type key = int
(** Tables keyed by name keys. *)
