(** Durable, append-only audit log with checksummed record framing.

    File layout: 8-byte magic, then frames of
    [u32 length | u32 crc32(payload) | payload] (big-endian). The writer
    grows the file 64 KiB of zero bytes at a time and overwrites them, so
    a log that was not {!close}d may end in zero padding: a zero length
    with only zeros after it is the end of the log. {!open_} recovers:
    intact records are kept, the padding and the torn tail after a crash
    are truncated. {!append} is failure-atomic (the log is healed back to
    the pre-append size on a failed write). All failures raise
    [Engine_core.Engine_error.Error (Log_io _)] — the policy layer in
    [Db.Database] decides fail-closed vs fail-open.

    Opened with [~max_segment_size], the log is {e segmented}: a sequence
    of files [base.NNNN.wal] plus a CRC-framed manifest [base.manifest]
    holding one fsynced {!record.Checkpoint} per sealed segment. Rotation
    is size-based inside {!append}; recovery reads only the manifest and
    the tail segment (bounded, O(segment size)); ENOSPC rotates-or-poisons
    per the policy instead of healing forever. *)

open Engine_core

type record =
  | Accessed of {
      session : int;  (** originating session (0 = single-session engine) *)
      seq : int;  (** logical clock of the statement *)
      user : string;
      sql : string;  (** outermost statement text *)
      audit : string;  (** audit expression name *)
      ids : string list;  (** accessed sensitive IDs (rendered values) *)
      complete : bool;
          (** false when flushed on abort/cancellation (partial set) *)
    }
  | Trigger_fired of {
      session : int;
      seq : int;
      trigger : string;
      audit : string;
      timing : string;
    }
  | Notify of { session : int; seq : int; msg : string }
  | Note of string  (** engine annotations: alarms, recovery notes *)
  | Checkpoint of { segment : int; records : int; bytes : int }
      (** manifest-only: segment [segment] is sealed and fully fsynced
          with [records] intact records in [bytes] bytes *)

val record_to_string : record -> string

(** The originating session of an evidence record ([None] for notes). *)
val record_session : record -> int option

type recovery = {
  valid_records : int;  (** intact records in the recovered prefix *)
  valid_bytes : int;  (** file size after truncating the torn tail *)
  truncated_bytes : int;  (** torn/corrupt bytes dropped from the tail *)
  padding_bytes : int;
      (** preallocated zero bytes after the last frame: the clean end of
          a log whose writer did not {!close} it; never counted as torn *)
  corrupt : bool;
      (** the tail failed its checksum (vs a clean short tail) *)
  segments : int;  (** segment files covered (1 for a single-file log) *)
  tail_segment : int;  (** index of the active (scanned) segment *)
  scanned_bytes : int;
      (** bytes actually read during recovery — manifest + tail only for
          a segmented log, the whole file otherwise *)
}

type policy =
  | Fail_closed
      (** a failed log write withholds the query's results (default) *)
  | Fail_open  (** a failed log write raises an alarm but results flow *)

val policy_to_string : policy -> string

type t

(** Open (creating if needed) with recovery: truncates the torn tail and
    positions the handle for append. With [~max_segment_size] (or when
    [path ^ ".manifest"] already exists) the log is segmented and
    recovery is bounded to the manifest + tail segment. *)
val open_ :
  ?policy:policy ->
  ?faults:Faultkit.t ->
  ?max_segment_size:int ->
  string ->
  t * recovery

(** Default segment-rotation threshold (4 MiB). *)
val default_segment_size : int

(** Path of segment [i] of a segmented log rooted at the base path
    ([audit.wal] -> [audit.0007.wal]). *)
val segment_path : string -> int -> string

(** Manifest path of a segmented log rooted at the base path. *)
val manifest_path : string -> string

(** Append records in order (call {!sync} before releasing query
    results): their frames go out in one write, split only right after a
    record that reaches the segment threshold (the segment rotates
    there) and right before a record the fault kit hits. The fault kit's
    [Log_io] points are consulted once per record, in order, so a fault
    injected at record k leaves records 1…k−1 written. Each write is
    failure-atomic. *)
val append_all : t -> record list -> unit

(** [append_all] of one record. *)
val append : t -> record -> unit

(** Flush appended records to stable storage (fsync). *)
val sync : t -> unit

(** Close cleanly: the preallocated zero tail is truncated, so the file
    holds the magic and its frames and nothing else. *)
val close : t -> unit

(** Drop the handle as a crash would: no truncation, no fsync. The
    padding (and a torn frame, after an injected crash) stays on disk
    for {!open_} to recover. *)
val kill : t -> unit

val path : t -> string
val policy : t -> policy
val set_policy : t -> policy -> unit

(** Records appended through this handle (excluding recovered ones). *)
val appended : t -> int

(** Fsyncs issued through this handle. *)
val syncs : t -> int

(** False once the handle died (failed heal or simulated crash). *)
val is_open : t -> bool

(** True when the handle writes a segmented log. *)
val is_segmented : t -> bool

(** Segment files so far (1 for a single-file log). *)
val segments : t -> int

(** Rotations performed through this handle. *)
val rotations : t -> int

(** Index of the active segment (0 for a single-file log). *)
val tail_segment : t -> int

(** Read and validate a log without opening it for append: the intact
    records and the recovery report. Missing file = empty log. *)
val read_all : string -> record list * recovery

(** CRC32 (IEEE) of a string — exposed for integrity checks in tests. *)
val crc32 : string -> int

(** The on-disk bytes of one record: length, checksum and payload. A
    cleanly closed log is the magic followed by the frames of its
    records. *)
val frame : record -> string

(** The 8-byte magic that starts every log and segment file. *)
val magic : string

type wal = t
(** alias usable inside {!Group}, where [t] names the group writer *)

(** Group commit: a shared writer that batches concurrent sessions'
    records into one fsync (leader/follower). {!Group.submit} blocks until
    the caller's records are covered by a completed group fsync, so the
    evidence-before-results invariant carries over to the served engine. A
    failed batch poisons the writer: every waiter and later submit raises
    [Engine_error.Error (Log_io _)]; on-disk recovery is the normal
    torn-tail scan. Safe for use from multiple systhreads. *)
module Group : sig
  type t

  type stats = {
    s_submits : int;  (** submit calls that carried records *)
    s_records : int;  (** records enqueued over the writer's lifetime *)
    s_batches : int;  (** completed group flushes *)
    s_fsyncs : int;  (** fsyncs on the underlying log *)
    s_max_batch : int;  (** largest single-fsync batch, in records *)
  }

  (** Wrap an open log. [max_pending] caps queued-but-not-durable records;
      submits block above it (backpressure). The group writer owns every
      append/fsync on the log from then on. *)
  val create : ?max_pending:int -> wal -> t

  val wal : t -> wal

  (** Append the records and block until a group fsync covers them. An
      empty list returns immediately. *)
  val submit : t -> record list -> unit

  (** Records enqueued but not yet durable. *)
  val pending : t -> int

  (** Hold flushes so submits park in one growing batch — a deterministic
      way for tests to force K sessions into a single fsync. *)
  val pause : t -> unit

  val resume : t -> unit

  (** Flush everything queued without closing. *)
  val drain : t -> unit

  (** Drain, then close the writer and the underlying log. *)
  val close : t -> unit

  val stats : t -> stats
end
