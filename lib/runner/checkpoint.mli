(** JSONL checkpoints for resumable campaigns
    (schema ["elastic-speculation/checkpoint/v1"]).

    Line 1 is a header object identifying the campaign (name, shard
    count, seed and — when launched from the shell — the command string
    a [runner resume] re-executes).  Every later line is one completed
    shard: its id, index, attempt count and the exact
    {!Elastic_metrics.Metrics} sample snapshot it produced.  Entries are
    appended (and fsynced per line by the runner's lock discipline) as
    shards finish, so a killed run loses at most the line it was writing
    — {!load} tolerates a truncated final line and reports it, while a
    corrupt {e interior} line is a hard [Error] naming the line number
    and byte offset. *)

type header = {
  campaign : string;
  command : string option;  (** shell command to re-run on resume *)
  shards : int;
  seed : int;
}

type entry = {
  e_id : string;  (** task id — the resume match key *)
  e_index : int;
  e_attempts : int;
  e_seconds : float;
      (** wall seconds of the completing attempt; 0.0 when loaded from
          a pre-spans checkpoint that lacks the field *)
  e_samples : Elastic_metrics.Metrics.sample list;
}

type t = {
  header : header;
  entries : entry list;  (** in file order *)
  truncated : bool;  (** final line was cut off and dropped *)
}

(** Atomically (re)create [path] holding the header plus [entries] —
    used at run start to seed a fresh file or carry adopted entries
    forward. *)
val write : path:string -> header -> entry list -> unit

(** Append one completed-shard line.  The file must exist. *)
val append : path:string -> entry -> unit

(** Never raises on bad content; I/O errors and malformed interior
    lines come back as [Error]. *)
val load : string -> (t, string) result
