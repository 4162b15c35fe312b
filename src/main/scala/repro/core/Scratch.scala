package repro.core

import scala.reflect.ClassTag

/** What one thread keeps across codec calls: the one place that decides who
  * owns a thread's kept state and how big it may get. The JVM zeroes every
  * new array in full, so an array or table allocated per call costs more
  * than coding a 4 KiB page with it. A codec is `Serializable` and shared by
  * every thread that calls it, so it keeps nothing in a field; each call
  * takes its thread's scratch from [[Scratch.get]].
  *
  * The rules:
  *   - an array is kept only up to [[Scratch.MaxBytes]]; a larger request
  *     gets a new array that nothing keeps, so grid blocks and 8 MB blocks
  *     are not retained;
  *   - arrays live at once in one call take different roles, and parts coded
  *     on pool threads use each pool thread's scratch;
  *   - nothing kept leaves a call: the caller gets an exact-size copy or a
  *     new array;
  *   - a kept array holds an earlier call's contents, perhaps another
  *     codec's, so its user writes every element before it reads it.
  *
  * The most one thread retains between calls is 1 728 KiB: the five roles
  * and the two writers' arrays at 64 KiB each (448 KiB), the position
  * table's 2^16 slots (256 KiB), and pFPC's pair (1 MiB) once pFPC ran on
  * the thread. A call that throws may leave a writer holding a larger array
  * until the next call restarts it.
  */
final class Scratch private {
  import Scratch.Role

  /** A frame's parts, each coded into its worst case ([[Frame.write]]). */
  val frame = new Role[Byte](1)

  /** The bytes a codec hands to its LZ stage or takes from it: bitshuffle's
    * shuffled part, nv:LZ4's raw chunk, SPDP's transformed block.
    */
  val staged = new Role[Byte](1)

  /** LZa6's output, MPC's stream, or a whole array's LZ4 or zstd stream
    * ([[repro.lz.LzBackend.compress]]).
    */
  val coded = new Role[Byte](1)

  /** LZa6's ring of chain links. */
  val links = new Role[Int](4)

  /** nv:btcomp's zigzag deltas of a chunk, or one ndzip tile (4096 words). */
  val words = new Role[Long](8)

  /** LZa6's `head`, Chimp's value index and LZ4's match table, all in one. */
  val positions = new PositionTable(1)

  /** The bit stream of Gorilla, Chimp, GFC, nv:btcomp and fpzip's verbatim
    * bits.
    */
  val bits = new BitWriter

  /** fpzip's range-coded symbols, one byte at a time. */
  val symbols = new BitWriter

  private var pair: ReusedTable = _

  /** pFPC's FCM/DFCM pair of `size` slots each, created on first use. */
  def fcmPair(size: Int): ReusedTable = {
    if (pair == null || pair.size < size) pair = new ReusedTable(size)
    pair
  }
}

object Scratch {
  /** The most bytes a thread keeps in one array. */
  final val MaxBytes = 64 << 10

  /** Whether a thread may keep an array of `bytes` bytes past a call. */
  def keeps(bytes: Long): Boolean = bytes <= MaxBytes

  private val threads = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** This thread's scratch. */
  def get: Scratch = threads.get

  /** One role's grow-only array of elements of `elemBytes` bytes. */
  final class Role[A: ClassTag] private[Scratch] (elemBytes: Int) {
    private var kept: Array[A] = new Array[A](0)

    /** An array of at least `n` elements with stale contents: the kept one
      * if `n` elements fit in [[MaxBytes]], else a new one.
      */
    def atLeast(n: Int): Array[A] =
      if (!keeps(n.toLong * elemBytes)) new Array[A](n)
      else {
        if (kept.length < n) kept = new Array[A](n)
        kept
      }
  }
}

/** A hash table of input positions, never cleared between calls: undoing a
  * call's writes would cost a second hash of its input. A slot holds
  * `position + base`, and each call, whoever its user, takes a base above
  * every value the table holds, so a slot written before reads as below the
  * base, that is as "no position" (or as whatever its user reads a stale
  * slot as); so do the zeros of a table that grew. A call that throws leaves
  * nothing to undo either. Only when a base would pass `Int.MaxValue` is the
  * table refilled with zeros, once every 2^31 positions or so.
  */
final class PositionTable private[core] (private var next: Int) {
  private var table = new Array[Int](0)

  /** `position + base` of each hash; a slot below the current base is stale. */
  def slots: Array[Int] = table

  /** The base of a call that stores positions `0 until span` in the first
    * `size` slots: above every value stored before, with `base + span` at
    * most `Int.MaxValue`. The table grows here, so read [[slots]] after it.
    */
  def base(span: Int, size: Int): Int = {
    if (table.length < size) table = new Array[Int](size)
    if (span > Int.MaxValue - next) { java.util.Arrays.fill(table, 0); next = 1 }
    val b = next
    next += span
    b
  }
}

/** pFPC's FCM/DFCM table pair. Its slots hold predicted values, where a
  * stale slot would change a prediction, so each call starts from zeroed
  * tables; the C reference codecs get lazily zeroed pages from `calloc`.
  * Between calls the pair is either zeroed or marked dirty:
  *   - a long input (at least `size / 4` values) starts with a full fill,
  *     which also brings the tables into cache as zeroing fresh arrays did,
  *     and leaves them dirty;
  *   - a short input fills only dirty tables, and afterwards undoes its own
  *     writes: the codec replays its hash over the input;
  *   - a call that throws leaves the pair dirty.
  */
final class ReusedTable private[core] (val size: Int) {
  val fcm  = new Array[Long](size)
  val dfcm = new Array[Long](size)

  private var dirty = false

  /** Call before coding `n` values. The pair counts as dirty until `release`. */
  def acquire(n: Int): this.type = {
    if (dirty || long(n)) {
      java.util.Arrays.fill(fcm, 0L)
      java.util.Arrays.fill(dfcm, 0L)
    }
    dirty = true
    this
  }

  /** Call after coding `n` values without error; for a short input, `reset`
    * zeroes the slots the input touched.
    */
  def release(n: Int)(reset: => Unit): Unit =
    if (!long(n)) { reset; dirty = false }

  private def long(n: Int): Boolean = n >= size / 4
}
