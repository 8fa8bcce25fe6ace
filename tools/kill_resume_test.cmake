# Kill-resume harness: crashes the CLI at deterministic geocode-lookup
# counts (--crash-after N -> hard exit 42, simulating kill -9), resumes
# from the checkpoint directory, and byte-compares the resumed report.json
# against an uninterrupted run. Also covers torn journal tails, fault
# injection across the crash, threaded runs, journal-only (no checkpoint)
# zero-quota resumes, corrupt-durable-state degradation, and the same
# crash/resume scenarios, streaming included, on an arena corpus
# (--corpus).

set(CRASH_EXIT 42)

function(run_cli out_rc out_stdout out_stderr)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  set(${out_rc} "${rc}" PARENT_SCOPE)
  set(${out_stdout} "${stdout}" PARENT_SCOPE)
  set(${out_stderr} "${stderr}" PARENT_SCOPE)
endfunction()

function(expect_same_report label path_a path_b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${path_a} ${path_b}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    file(READ ${path_a} a)
    file(READ ${path_b} b)
    message(FATAL_ERROR "${label}: report.json differs\n"
            "=== ${path_a} ===\n${a}\n=== ${path_b} ===\n${b}")
  endif()
endfunction()

# Fresh checkpoint + report directories for one scenario.
function(prepare_dirs name)
  file(REMOVE_RECURSE ${WORK_DIR}/${name}_ckpt ${WORK_DIR}/${name}_report)
  file(MAKE_DIRECTORY ${WORK_DIR}/${name}_ckpt ${WORK_DIR}/${name}_report)
endfunction()

set(USERS ${WORK_DIR}/kr_users.tsv)
set(TWEETS ${WORK_DIR}/kr_tweets.tsv)
run_cli(rc out err generate --preset korean --scale 0.05
        --users ${USERS} --tweets ${TWEETS})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()

set(STUDY study --users ${USERS} --tweets ${TWEETS})

# Uninterrupted baseline (no durability flags at all).
file(REMOVE_RECURSE ${WORK_DIR}/kr_clean_report)
file(MAKE_DIRECTORY ${WORK_DIR}/kr_clean_report)
run_cli(rc clean_out err ${STUDY} --report-dir ${WORK_DIR}/kr_clean_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean baseline failed (${rc}): ${err}")
endif()
set(CLEAN_REPORT ${WORK_DIR}/kr_clean_report/report.json)

# --- Crash/resume at three distinct crash points -----------------------
# The 0.05-scale corpus issues well over 1000 geocode lookups, so these
# land early, mid, and late in the refinement stage.
foreach(crash_at 40 300 700)
  set(name kr_crash_${crash_at})
  prepare_dirs(${name})
  run_cli(rc out err ${STUDY}
          --checkpoint-dir ${WORK_DIR}/${name}_ckpt
          --checkpoint-every 16 --crash-after ${crash_at})
  if(NOT rc EQUAL ${CRASH_EXIT})
    message(FATAL_ERROR "--crash-after ${crash_at} exited ${rc}, "
            "expected ${CRASH_EXIT}: ${out} ${err}")
  endif()
  if(NOT EXISTS ${WORK_DIR}/${name}_ckpt/geocode.journal)
    message(FATAL_ERROR "crash at ${crash_at} left no geocode journal")
  endif()

  run_cli(rc out err ${STUDY}
          --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
          --report-dir ${WORK_DIR}/${name}_report)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resume after crash at ${crash_at} failed (${rc}): ${err}")
  endif()
  expect_same_report("crash at ${crash_at}"
                     ${CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)
endforeach()

# --- Torn journal tail -------------------------------------------------
# A crash mid-append leaves a partial frame; the resume must truncate it
# and still reproduce the clean report.
set(name kr_torn)
prepare_dirs(${name})
run_cli(rc out err ${STUDY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt
        --checkpoint-every 16 --crash-after 300)
if(NOT rc EQUAL ${CRASH_EXIT})
  message(FATAL_ERROR "torn-tail crash run exited ${rc}: ${out} ${err}")
endif()
# Partial frame: these bytes decode to a length field far beyond
# kJournalMaxRecordSize, which replay treats as a torn tail.
file(APPEND ${WORK_DIR}/${name}_ckpt/geocode.journal "TORNTAILBYTES")
run_cli(rc out err ${STUDY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "torn-tail resume failed (${rc}): ${err}")
endif()
expect_same_report("torn journal tail"
                   ${CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)

# --- Crash/resume under fault injection --------------------------------
# The injector's sequence position is checkpointed, so the resumed faulty
# run must reproduce the uninterrupted faulty run exactly.
set(FAULTY --fault-rate 0.2 --fault-seed 7 --retry-max 2)
file(REMOVE_RECURSE ${WORK_DIR}/kr_faulty_clean_report)
file(MAKE_DIRECTORY ${WORK_DIR}/kr_faulty_clean_report)
run_cli(rc out err ${STUDY} ${FAULTY}
        --report-dir ${WORK_DIR}/kr_faulty_clean_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "faulty baseline failed (${rc}): ${err}")
endif()
set(name kr_faulty)
prepare_dirs(${name})
run_cli(rc out err ${STUDY} ${FAULTY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt
        --checkpoint-every 16 --crash-after 300)
if(NOT rc EQUAL ${CRASH_EXIT})
  message(FATAL_ERROR "faulty crash run exited ${rc}: ${out} ${err}")
endif()
run_cli(rc out err ${STUDY} ${FAULTY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "faulty resume failed (${rc}): ${err}")
endif()
expect_same_report("faulty crash/resume"
                   ${WORK_DIR}/kr_faulty_clean_report/report.json
                   ${WORK_DIR}/${name}_report/report.json)

# --- Threaded crash/resume ---------------------------------------------
set(name kr_threaded)
prepare_dirs(${name})
run_cli(rc out err ${STUDY} --threads 4
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt
        --checkpoint-every 16 --crash-after 300)
if(NOT rc EQUAL ${CRASH_EXIT})
  message(FATAL_ERROR "threaded crash run exited ${rc}: ${out} ${err}")
endif()
run_cli(rc out err ${STUDY} --threads 4
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "threaded resume failed (${rc}): ${err}")
endif()
expect_same_report("threaded crash/resume"
                   ${CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)

# --- Zero-quota resumes ------------------------------------------------
# Complete a checkpointed run, then resume with a zero geocoder quota:
# the kRefinementDone checkpoint short-circuits the pipeline.
set(name kr_done)
prepare_dirs(${name})
run_cli(rc out err ${STUDY} --checkpoint-dir ${WORK_DIR}/${name}_ckpt)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointed full run failed (${rc}): ${err}")
endif()
run_cli(rc out err ${STUDY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --geocode-quota 0 --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume-after-complete failed (${rc}): ${err}")
endif()
expect_same_report("resume after complete (quota 0)"
                   ${CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)

# Journal-only resume: drop the checkpoint but keep the geocode journal.
# Refinement re-runs in full, but every previously-resolved lookup is a
# journal-warmed cache hit — zero quota spent.
file(REMOVE ${WORK_DIR}/${name}_ckpt/study.ckpt)
file(REMOVE_RECURSE ${WORK_DIR}/kr_journal_only_report)
file(MAKE_DIRECTORY ${WORK_DIR}/kr_journal_only_report)
run_cli(rc out err ${STUDY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --geocode-quota 0 --report-dir ${WORK_DIR}/kr_journal_only_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journal-only quota-0 resume failed (${rc}): ${err}")
endif()
expect_same_report("journal-only resume (quota 0)"
                   ${CLEAN_REPORT} ${WORK_DIR}/kr_journal_only_report/report.json)

# --- Corrupt durable state degrades, never aborts ----------------------
set(name kr_corrupt)
prepare_dirs(${name})
file(WRITE ${WORK_DIR}/${name}_ckpt/geocode.journal
     "garbage that is not a journal at all.............")
file(WRITE ${WORK_DIR}/${name}_ckpt/study.ckpt "SHORT")
run_cli(rc out err ${STUDY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corrupt-state resume aborted (${rc}): ${err}")
endif()
if(NOT err MATCHES "geocode journal unusable")
  message(FATAL_ERROR "missing journal-unusable warning: ${err}")
endif()
if(NOT err MATCHES "checkpoint unusable")
  message(FATAL_ERROR "missing checkpoint-unusable warning: ${err}")
endif()
expect_same_report("corrupt durable state"
                   ${CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)

# --- Streaming: clean run equals batch ---------------------------------
# The incremental engine folds the same log through epoch-sized deltas;
# its final report must be byte-identical to the one-shot batch report.
file(REMOVE_RECURSE ${WORK_DIR}/kr_stream_clean_report)
file(MAKE_DIRECTORY ${WORK_DIR}/kr_stream_clean_report)
run_cli(rc out err ${STUDY} --stream --epoch-size 13
        --report-dir ${WORK_DIR}/kr_stream_clean_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "streaming clean run failed (${rc}): ${err}")
endif()
expect_same_report("streaming clean vs batch"
                   ${CLEAN_REPORT}
                   ${WORK_DIR}/kr_stream_clean_report/report.json)

# --- Streaming crash/resume --------------------------------------------
# Kill the streaming ingest mid-log, then resume against the stream
# journal: replay re-seals the journaled epochs at the same boundaries
# and the tail re-ingests live, so the report is again byte-identical.
set(name kr_stream_crash)
prepare_dirs(${name})
run_cli(rc out err ${STUDY} --stream --epoch-size 13
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt
        --crash-after 300)
if(NOT rc EQUAL ${CRASH_EXIT})
  message(FATAL_ERROR "streaming crash run exited ${rc}, "
          "expected ${CRASH_EXIT}: ${out} ${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/${name}_ckpt/stream.journal)
  message(FATAL_ERROR "streaming crash left no stream journal")
endif()
run_cli(rc out err ${STUDY} --stream --epoch-size 13
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "streaming resume failed (${rc}): ${err}")
endif()
expect_same_report("streaming crash/resume"
                   ${CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)

# --- Streaming torn stream-journal tail --------------------------------
set(name kr_stream_torn)
prepare_dirs(${name})
run_cli(rc out err ${STUDY} --stream --epoch-size 13
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt
        --crash-after 300)
if(NOT rc EQUAL ${CRASH_EXIT})
  message(FATAL_ERROR "streaming torn-tail crash exited ${rc}: ${out} ${err}")
endif()
file(APPEND ${WORK_DIR}/${name}_ckpt/stream.journal "TORNTAILBYTES")
run_cli(rc out err ${STUDY} --stream --epoch-size 13
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "streaming torn-tail resume failed (${rc}): ${err}")
endif()
expect_same_report("streaming torn stream-journal tail"
                   ${CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)

# --- Arena corpus (--corpus) --------------------------------------------
# The batch study reads every corpus through one view path, so a mapped
# arena corpus checkpoints exactly like a TSV pair: crash, resume, and
# byte-compare against the uncrashed --corpus run.
set(CORPUS ${WORK_DIR}/kr_corpus.stir)
run_cli(rc out err generate --preset korean --scale 0.05 --corpus ${CORPUS})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate --corpus failed (${rc}): ${out} ${err}")
endif()
set(CSTUDY study --corpus ${CORPUS})

file(REMOVE_RECURSE ${WORK_DIR}/kr_corpus_clean_report)
file(MAKE_DIRECTORY ${WORK_DIR}/kr_corpus_clean_report)
run_cli(rc out err ${CSTUDY} --report-dir ${WORK_DIR}/kr_corpus_clean_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--corpus clean baseline failed (${rc}): ${err}")
endif()
set(CORPUS_CLEAN_REPORT ${WORK_DIR}/kr_corpus_clean_report/report.json)

file(REMOVE_RECURSE ${WORK_DIR}/kr_corpus_faulty_clean_report)
file(MAKE_DIRECTORY ${WORK_DIR}/kr_corpus_faulty_clean_report)
run_cli(rc out err ${CSTUDY} ${FAULTY}
        --report-dir ${WORK_DIR}/kr_corpus_faulty_clean_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--corpus faulty baseline failed (${rc}): ${err}")
endif()

# Each scenario: <name> | <expected clean report> | <extra study flags>.
foreach(scenario serial threaded faulty)
  set(name kr_corpus_${scenario})
  set(extra)
  set(expected ${CORPUS_CLEAN_REPORT})
  if(scenario STREQUAL "threaded")
    set(extra --threads 4)
  elseif(scenario STREQUAL "faulty")
    set(extra ${FAULTY})
    set(expected ${WORK_DIR}/kr_corpus_faulty_clean_report/report.json)
  endif()
  prepare_dirs(${name})
  run_cli(rc out err ${CSTUDY} ${extra}
          --checkpoint-dir ${WORK_DIR}/${name}_ckpt
          --checkpoint-every 16 --crash-after 300)
  if(NOT rc EQUAL ${CRASH_EXIT})
    message(FATAL_ERROR "--corpus ${scenario} crash run exited ${rc}, "
            "expected ${CRASH_EXIT}: ${out} ${err}")
  endif()
  if(NOT EXISTS ${WORK_DIR}/${name}_ckpt/study.ckpt)
    message(FATAL_ERROR "--corpus ${scenario} crash left no checkpoint")
  endif()
  if(err MATCHES "does not checkpoint")
    message(FATAL_ERROR "--corpus still warns about checkpointing: ${err}")
  endif()
  run_cli(rc out err ${CSTUDY} ${extra}
          --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
          --report-dir ${WORK_DIR}/${name}_report)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--corpus ${scenario} resume failed (${rc}): ${err}")
  endif()
  expect_same_report("--corpus ${scenario} crash/resume"
                     ${expected} ${WORK_DIR}/${name}_report/report.json)
endforeach()

# Complete, then resume with a zero quota: the refinement-done
# checkpoint short-circuits the pipeline.
set(name kr_corpus_done)
prepare_dirs(${name})
run_cli(rc out err ${CSTUDY} --checkpoint-dir ${WORK_DIR}/${name}_ckpt)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--corpus checkpointed full run failed (${rc}): ${err}")
endif()
run_cli(rc out err ${CSTUDY}
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --geocode-quota 0 --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--corpus resume-after-complete failed (${rc}): ${err}")
endif()
expect_same_report("--corpus resume after complete (quota 0)"
                   ${CORPUS_CLEAN_REPORT}
                   ${WORK_DIR}/${name}_report/report.json)

# --- Streaming on the arena corpus ---------------------------------------
# The stream engine pre-ingests straight from the mapped view: a clean
# run and a crash/resume must both equal the --corpus batch report.
file(REMOVE_RECURSE ${WORK_DIR}/kr_corpus_stream_clean_report)
file(MAKE_DIRECTORY ${WORK_DIR}/kr_corpus_stream_clean_report)
run_cli(rc out err ${CSTUDY} --stream --epoch-size 13
        --report-dir ${WORK_DIR}/kr_corpus_stream_clean_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--corpus streaming clean run failed (${rc}): ${err}")
endif()
expect_same_report("--corpus streaming clean vs batch"
                   ${CORPUS_CLEAN_REPORT}
                   ${WORK_DIR}/kr_corpus_stream_clean_report/report.json)

set(name kr_corpus_stream_crash)
prepare_dirs(${name})
run_cli(rc out err ${CSTUDY} --stream --epoch-size 13
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt
        --crash-after 300)
if(NOT rc EQUAL ${CRASH_EXIT})
  message(FATAL_ERROR "--corpus streaming crash run exited ${rc}, "
          "expected ${CRASH_EXIT}: ${out} ${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/${name}_ckpt/stream.journal)
  message(FATAL_ERROR "--corpus streaming crash left no stream journal")
endif()
run_cli(rc out err ${CSTUDY} --stream --epoch-size 13
        --checkpoint-dir ${WORK_DIR}/${name}_ckpt --resume
        --report-dir ${WORK_DIR}/${name}_report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--corpus streaming resume failed (${rc}): ${err}")
endif()
expect_same_report("--corpus streaming crash/resume"
                   ${CORPUS_CLEAN_REPORT} ${WORK_DIR}/${name}_report/report.json)

message(STATUS "kill-resume harness passed")
