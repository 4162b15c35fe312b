package repro.core

import java.util.concurrent.{Executors, Semaphore, ThreadFactory}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** Fork/join over independent work items at an explicit width.
  *
  * The parallel codecs (pFPC, bitshuffle, ndzip-CPU) compress blocks/chunks
  * independently; Tables 7/8 sweep the thread count, so the width is an
  * explicit argument rather than the common pool's. Every width shares one
  * cached pool of daemon threads: codecs compress MB-scale blocks in
  * milliseconds, so per-call thread start-up would dominate the measurement,
  * while a thread idle for the pool's keep-alive (60 s) ends, and with it
  * the [[Scratch]] it kept.
  */
object Parallel {
  private val pool = Executors.newCachedThreadPool(new ThreadFactory {
    private val count = new AtomicInteger
    def newThread(r: Runnable): Thread = {
      val th = new Thread(r, s"repro-parallel-${count.incrementAndGet()}")
      th.setDaemon(true)
      th
    }
  })

  /** `items.map(f)` on `threads` workers, the calling thread one of them:
    * each takes the next unclaimed item until none is left, so at most
    * `threads` items run at once. It returns, or throws, only once every
    * worker has stopped. A failed item stops the workers from taking more
    * and raises its own exception, as it would on one thread, not a wrapper.
    */
  def map[A, B](items: IndexedSeq[A], threads: Int)(f: A => B): IndexedSeq[B] = {
    require(threads >= 1, s"bad thread count: $threads")
    val workers = math.min(threads, items.size)
    if (workers <= 1) return items.map(f)
    val out     = new Array[Any](items.size)
    val next    = new AtomicInteger
    val failure = new AtomicReference[Throwable]
    def work(): Unit = {
      var i = next.getAndIncrement()
      while (i < items.size && failure.get == null) {
        try out(i) = f(items(i))
        catch { case t: Throwable => failure.compareAndSet(null, t) }
        i = next.getAndIncrement()
      }
    }
    val stopped = new Semaphore(0)
    var started = 0
    try while (started < workers - 1) {
      pool.execute(() => try work() finally stopped.release())
      started += 1
    } catch { case t: Throwable => failure.compareAndSet(null, t) }
    work()
    stopped.acquireUninterruptibly(started)
    if (failure.get != null) throw failure.get
    out.toIndexedSeq.asInstanceOf[IndexedSeq[B]]
  }
}

/** Codecs whose thread count is sweepable (Table 7/8). */
trait ThreadedCodec extends Codec {
  def threads: Int
  def withThreads(t: Int): Codec
}
