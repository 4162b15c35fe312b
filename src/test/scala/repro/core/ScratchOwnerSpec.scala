package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import repro.SparkSpec

/** A thread's kept state has one owner, [[Scratch]]: no codec or helper in
  * `src/main/scala` keeps its own per-thread field. The only other
  * `ThreadLocal` is zstd's contexts in `lz/Backends.scala`, whose native
  * memory a `Cleaner` frees. Read from the sources, so that a new
  * per-thread field fails here before any stream shows it.
  */
class ScratchOwnerSpec extends SparkSpec {
  private val root: Path = Paths.get("src", "main", "scala")

  /** Each source's path under `root`, with `/` separators, and its lines. */
  private lazy val sources: Seq[(String, IndexedSeq[String])] = {
    val paths = Files.walk(root).iterator.asScala.filter(_.toString.endsWith(".scala")).toSeq
    paths.map { p =>
      root.relativize(p).iterator.asScala.mkString("/") ->
        new String(Files.readAllBytes(p), UTF_8).linesIterator.toIndexedSeq
    }
  }

  /** Where `ZstdBackend` starts, its scaladoc included: past the end when
    * there is none.
    */
  private def zstdFrom(lines: IndexedSeq[String]): Int = {
    var i = lines.indexWhere(_.startsWith("object ZstdBackend"))
    if (i < 0) return lines.length
    while (i > 0 && (lines(i - 1).trim.startsWith("*") || lines(i - 1).trim.startsWith("/**"))) i -= 1
    i
  }

  test("the sources are found") {
    assert(sources.exists(_._1 == "repro/core/Scratch.scala"), s"no Scratch.scala under ${root.toAbsolutePath}")
  }

  test("no ThreadLocal in src/main outside core/Scratch.scala and ZstdBackend's contexts") {
    val stray = for {
      (name, lines) <- sources if name != "repro/core/Scratch.scala"
      allowedFrom    = if (name == "repro/lz/Backends.scala") zstdFrom(lines) else lines.length
      (line, i)     <- lines.zipWithIndex if line.contains("ThreadLocal") && i < allowedFrom
    } yield s"$name:${i + 1}: ${line.trim}"
    assert(stray.isEmpty, stray.mkString("\n"))
    val zstd = sources.collect { case ("repro/lz/Backends.scala", lines) => lines.count(_.contains("ThreadLocal.withInitial")) }
    assert(zstd == Seq(1), s"ZstdBackend's ThreadLocals: $zstd")
  }

  /** The growable arrays and writers that [[Scratch]] and [[BitWriter]] replaced. */
  for (gone <- Seq("KeptArray", "ByteBuf")) test(s"$gone does not reappear in src/main") {
    val word  = s"\\b$gone\\b".r
    val found = for ((name, lines) <- sources; (line, i) <- lines.zipWithIndex if word.findFirstIn(line).isDefined)
      yield s"$name:${i + 1}"
    assert(found.isEmpty, found.mkString(", "))
  }
}
