(** The textual GMT-IR v1 frontend (library [gmt_frontend]).

    A hand-written lexer and recursive-descent parser for the format
    {!Gmt_ir.Printer} emits (full grammar in docs/FORMAT.md): a [func]
    section producing a {!Gmt_ir.Func.t}, plus optional workload
    directives ([workload], [suite], [function], [exec_pct],
    [description], [mem_size]) and [input train] / [input ref] sections
    mapping onto {!Gmt_workloads.Workload.input}.

    The parser and {!print} are inverse: [parse (print w)] succeeds and
    is structurally equal to [w] ([parse_func (print_func f)] likewise
    for bare functions), where structural equality treats the
    live-in/live-out lists as sets — the canonical printed order is
    sorted and de-duplicated.

    Every syntax or consistency error carries a precise [file:line:col]
    position and, for unexpected tokens, the set of tokens that would
    have been accepted. The lexer reads the next token only when the
    parser asks for it, so a parse allocates little beyond its result,
    and the error reported is the first the parser meets reading the
    text from the start (a lexical error further on never pre-empts
    it). Checks that need a whole function (undefined or missing
    labels, validation) run once its last block is parsed. *)

open Gmt_ir
module Workload = Gmt_workloads.Workload

type error = { file : string; line : int; col : int; msg : string }

(** ["file:line:col: msg"]. *)
val render_error : error -> string

(** Parse a bare [func] section. [file] names the source in diagnostics
    (default ["<string>"]). *)
val parse_func : ?file:string -> string -> (Func.t, error) result

(** Parse a complete [.gmt] document: [gmt-ir v1] header, directives,
    one [func], optional inputs. Absent directives default to: workload
    name = function name, suite ["user"], exec_pct [0], empty
    description, mem_size [65536], empty inputs. *)
val parse : ?file:string -> string -> (Workload.t, error) result

(** Like {!parse}, but also return the instruction-id -> (line, col)
    position map the parser collected; [gmtc lint] anchors findings with
    it. Positions are 1-based, as in diagnostics. *)
val parse_pos :
  ?file:string ->
  string ->
  (Workload.t * (int -> (int * int) option), error) result

(** [load path] reads [path] (or stdin when [path] is ["-"]) and parses
    it. I/O failures are reported as an [error] at [path:0:0]. *)
val load : string -> (Workload.t, error) result

(** {!load} with the position map, as in {!parse_pos}. *)
val load_pos :
  string -> (Workload.t * (int -> (int * int) option), error) result

(** Canonical serialization of a workload; {!parse} inverts it. The
    [func] section is printed with {!Gmt_ir.Printer.func_to_string}. *)
val print : Workload.t -> string

(** [= Gmt_ir.Printer.func_to_string]. *)
val print_func : Func.t -> string

(** Structural equality: name, register count, regions, entry, every
    block body (ids and operations), and the live-in/live-out {e sets}. *)
val func_equal : Func.t -> Func.t -> bool

(** {!func_equal} on the function plus equality of every workload field
    (name, suite, function name, exec%, description, mem_size, exact
    train/ref input lists). *)
val workload_equal : Workload.t -> Workload.t -> bool
