(** Short names packed into one immediate int.

    Register names and mnemonics are at most 7 bytes long.  Packing a
    name's length and bytes into an int gives a key that two spans share
    exactly when their bytes are equal, so a parser can resolve a name
    straight from a span of its source text: no [String.sub], no string
    hashing.  A lexer computes the key while it scans the name, with
    {!add} on every byte and {!seal} at its end. *)

val add : int -> int -> int
(** [add key c] extends the key of a name's first bytes by the byte code
    [c].  Start from [0]. *)

val seal : int -> int -> int
(** [seal key len] is the key of the [len]-byte name whose bytes were
    {!add}ed to [key], or [-1] when [len > 7] (whatever [key] is then).
    Keys of names are non-negative. *)

val of_string : string -> int
(** The key of a name, or [-1] when it is longer than 7 bytes. *)

type table
(** A flat, open-addressed map from name keys to non-negative ints. *)

val table : (string * int) list -> table
(** The map binding each name's key to its value; a later binding of the
    same name wins.
    @raise Invalid_argument on a name longer than 7 bytes or a negative
    value. *)

val find : table -> int -> int
(** [find t key] is the value bound to [key], or [-1] when there is none
    (in particular for the key [-1] of a long name). *)
