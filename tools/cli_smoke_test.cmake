# Drives stir_cli through generate -> study -> audit and checks outputs.
execute_process(
  COMMAND ${CLI} generate --preset korean --scale 0.02
          --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()

file(MAKE_DIRECTORY ${WORK_DIR}/smoke_report)
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv
          --report-dir ${WORK_DIR}/smoke_report
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "study failed (${rc}): ${out} ${err}")
endif()
if(NOT out MATCHES "final users")
  message(FATAL_ERROR "study output missing funnel: ${out}")
endif()
foreach(csv funnel.csv groups.csv users.csv)
  if(NOT EXISTS ${WORK_DIR}/smoke_report/${csv})
    message(FATAL_ERROR "missing report file ${csv}")
  endif()
endforeach()

# Parallel study must print byte-identical reports to the serial run.
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --threads 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE serial_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serial study failed (${rc}): ${serial_out} ${err}")
endif()
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --threads 4
  RESULT_VARIABLE rc OUTPUT_VARIABLE parallel_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "parallel study failed (${rc}): ${parallel_out} ${err}")
endif()
if(NOT serial_out STREQUAL parallel_out)
  message(FATAL_ERROR "--threads 4 output differs from --threads 1:\n"
          "=== serial ===\n${serial_out}\n=== parallel ===\n${parallel_out}")
endif()

# --fault-rate 0 must leave the report byte-identical to a fault-free run.
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --threads 1 --fault-rate 0
  RESULT_VARIABLE rc OUTPUT_VARIABLE zero_fault_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--fault-rate 0 study failed (${rc}): ${zero_fault_out} ${err}")
endif()
if(NOT zero_fault_out STREQUAL serial_out)
  message(FATAL_ERROR "--fault-rate 0 output differs from the fault-free run:\n"
          "=== fault-free ===\n${serial_out}\n=== fault-rate 0 ===\n${zero_fault_out}")
endif()

# Faulty run: the degraded-mode pipeline must complete and report nonzero
# retried/degraded counters ...
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --threads 1
          --fault-rate 0.2 --fault-seed 7 --retry-max 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE faulty_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "faulty study failed (${rc}): ${faulty_out} ${err}")
endif()
if(NOT faulty_out MATCHES "retried attempts: +[1-9]")
  message(FATAL_ERROR "faulty study reported no retries: ${faulty_out}")
endif()
if(NOT faulty_out MATCHES "degraded \\(text fallback\\): +[1-9]")
  message(FATAL_ERROR "faulty study reported no degraded lookups: ${faulty_out}")
endif()

# ... and the faulty report must still be byte-identical across thread
# counts (faults are keyed on tweet dataset indices, not arrival order).
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --threads 4
          --fault-rate 0.2 --fault-seed 7 --retry-max 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE faulty_parallel_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "faulty parallel study failed (${rc}): ${faulty_parallel_out} ${err}")
endif()
if(NOT faulty_out STREQUAL faulty_parallel_out)
  message(FATAL_ERROR "faulty --threads 4 output differs from --threads 1:\n"
          "=== serial ===\n${faulty_out}\n=== parallel ===\n${faulty_parallel_out}")
endif()

# Checkpointing on (fresh directory, no crash) must leave stdout
# byte-identical to the plain run — durability is observable only in the
# checkpoint directory, never in the results.
file(REMOVE_RECURSE ${WORK_DIR}/smoke_ckpt)
file(MAKE_DIRECTORY ${WORK_DIR}/smoke_ckpt)
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --threads 1
          --checkpoint-dir ${WORK_DIR}/smoke_ckpt
  RESULT_VARIABLE rc OUTPUT_VARIABLE ckpt_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpointed study failed (${rc}): ${ckpt_out} ${err}")
endif()
if(NOT ckpt_out STREQUAL serial_out)
  message(FATAL_ERROR "--checkpoint-dir perturbed stdout:\n"
          "=== baseline ===\n${serial_out}\n=== checkpointed ===\n${ckpt_out}")
endif()
foreach(artifact geocode.journal study.ckpt)
  if(NOT EXISTS ${WORK_DIR}/smoke_ckpt/${artifact})
    message(FATAL_ERROR "checkpointed run left no ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E echo "Seoul Mapo-gu"
  COMMAND ${CLI} audit
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "well-defined")
  message(FATAL_ERROR "audit failed (${rc}): ${out} ${err}")
endif()

# --- Observability -----------------------------------------------------

# An obs-enabled parallel run must keep stdout byte-identical (exports
# announce on stderr) and produce parseable metrics + Chrome trace JSON.
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --threads 4
          --metrics-out ${WORK_DIR}/smoke_metrics.json
          --trace-out ${WORK_DIR}/smoke_trace.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE obs_out ERROR_VARIABLE obs_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "obs-enabled study failed (${rc}): ${obs_out} ${obs_err}")
endif()
if(NOT obs_out STREQUAL serial_out)
  message(FATAL_ERROR "--metrics-out/--trace-out perturbed stdout:\n"
          "=== baseline ===\n${serial_out}\n=== observed ===\n${obs_out}")
endif()
if(NOT obs_err MATCHES "metrics written to" OR NOT obs_err MATCHES "trace written to")
  message(FATAL_ERROR "obs export notices missing from stderr: ${obs_err}")
endif()

# --trace-real-time must reach the stream path too: its trace carries
# real timestamps, so it differs from the virtual-clock trace.
foreach(clock virtual real)
  set(clock_flag "")
  if(clock STREQUAL "real")
    set(clock_flag --trace-real-time)
  endif()
  execute_process(
    COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
            --tweets ${WORK_DIR}/smoke_tweets.tsv --stream
            --trace-out ${WORK_DIR}/smoke_stream_trace_${clock}.json
            ${clock_flag}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--stream ${clock}-clock trace failed (${rc}): ${err}")
  endif()
endforeach()
file(READ ${WORK_DIR}/smoke_stream_trace_virtual.json stream_trace_virtual)
file(READ ${WORK_DIR}/smoke_stream_trace_real.json stream_trace_real)
if(stream_trace_virtual STREQUAL stream_trace_real)
  message(FATAL_ERROR "--stream --trace-real-time wrote the virtual-clock "
          "trace: ${stream_trace_real}")
endif()

file(READ ${WORK_DIR}/smoke_metrics.json metrics_json)
# string(JSON) (CMake >= 3.19) both lints the documents and checks the
# drop-counter invariants the metrics contract promises; older CMake
# still runs everything above plus the CLI-contract checks below.
if(CMAKE_VERSION VERSION_LESS 3.19)
  set(skip_json_checks TRUE)
else()
  set(skip_json_checks FALSE)
endif()
if(NOT skip_json_checks)
string(JSON crawled GET "${metrics_json}" counters funnel.users.crawled)
string(JSON well_defined GET "${metrics_json}" counters funnel.users.well_defined)
string(JSON final GET "${metrics_json}" counters funnel.users.final)
string(JSON drop_empty GET "${metrics_json}" counters funnel.drop.profile_empty)
string(JSON drop_vague GET "${metrics_json}" counters funnel.drop.profile_vague)
string(JSON drop_insufficient GET "${metrics_json}" counters funnel.drop.profile_insufficient)
string(JSON drop_ambiguous GET "${metrics_json}" counters funnel.drop.profile_ambiguous)
string(JSON drop_no_geo GET "${metrics_json}" counters funnel.drop.no_geocoded_tweets)
math(EXPR profile_drops
     "${drop_empty} + ${drop_vague} + ${drop_insufficient} + ${drop_ambiguous}")
math(EXPR expected_profile_drops "${crawled} - ${well_defined}")
if(NOT profile_drops EQUAL expected_profile_drops)
  message(FATAL_ERROR "funnel.drop.profile_* sum ${profile_drops} != "
          "crawled - well_defined = ${expected_profile_drops}")
endif()
math(EXPR funnel_final "${well_defined} - ${drop_no_geo}")
if(NOT funnel_final EQUAL final)
  message(FATAL_ERROR "well_defined - no_geocoded_tweets = ${funnel_final} "
          "!= funnel.users.final = ${final}")
endif()
string(JSON geocode_queries GET "${metrics_json}" counters geocode.queries)
if(geocode_queries LESS 1)
  message(FATAL_ERROR "geocode.queries not recorded: ${geocode_queries}")
endif()

file(READ ${WORK_DIR}/smoke_trace.json trace_json)
string(JSON first_event GET "${trace_json}" traceEvents 0)
foreach(stage study refinement refine.shard grouping aggregate geocode)
  string(FIND "${trace_json}" "\"${stage}\"" stage_pos)
  if(stage_pos EQUAL -1)
    message(FATAL_ERROR "trace missing stage span '${stage}': ${trace_json}")
  endif()
endforeach()

# report.json: schema 2 nests the failure model under "resilience";
# --report-schema 1 reproduces the legacy layout without it.
file(READ ${WORK_DIR}/smoke_report/report.json report_json)
string(JSON report_schema GET "${report_json}" schema_version)
if(NOT report_schema EQUAL 2)
  message(FATAL_ERROR "report.json default schema_version ${report_schema} != 2")
endif()
string(JSON report_crawled GET "${report_json}" funnel crawled_users)
if(NOT report_crawled EQUAL crawled)
  message(FATAL_ERROR "report.json crawled_users ${report_crawled} != "
          "metrics funnel.users.crawled ${crawled}")
endif()
string(JSON fault_enabled GET "${report_json}" resilience fault_injection_enabled)
if(NOT fault_enabled MATCHES "^(OFF|FALSE|false)$")
  message(FATAL_ERROR "fault-free report.json resilience.fault_injection_enabled "
          "should be false, got '${fault_enabled}'")
endif()

file(MAKE_DIRECTORY ${WORK_DIR}/smoke_report_v1)
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv
          --report-dir ${WORK_DIR}/smoke_report_v1 --report-schema 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--report-schema 1 study failed (${rc}): ${out} ${err}")
endif()
file(READ ${WORK_DIR}/smoke_report_v1/report.json report_v1_json)
string(JSON report_v1_schema GET "${report_v1_json}" schema_version)
if(NOT report_v1_schema EQUAL 1)
  message(FATAL_ERROR "--report-schema 1 wrote schema_version ${report_v1_schema}")
endif()
string(JSON v1_resilience ERROR_VARIABLE v1_json_err GET "${report_v1_json}" resilience)
if(v1_json_err STREQUAL "NOTFOUND")
  message(FATAL_ERROR "schema 1 report.json must not contain 'resilience'")
endif()
endif()  # skip_json_checks

# --- CLI contract ------------------------------------------------------

# Unknown flags must be rejected with a non-zero exit.
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/smoke_users.tsv
          --tweets ${WORK_DIR}/smoke_tweets.tsv --definitely-not-a-flag
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown flag was accepted: ${out}")
endif()
if(NOT err MATCHES "unknown flag --definitely-not-a-flag")
  message(FATAL_ERROR "unknown-flag diagnostic missing: ${err}")
endif()

# --help is generated from the flag table and exits 0.
execute_process(
  COMMAND ${CLI} study --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "study --help exited ${rc}: ${err}")
endif()
foreach(flag metrics-out trace-out report-schema threads fault-rate
        stream epoch-size checkpoint-dir resume crash-after lenient-load
        gazetteer io-fault-seed io-fault-write-error-rate
        io-fault-short-write-rate io-fault-fsync-error-rate
        io-fault-eintr-rate io-fault-enospc-after io-fault-page-flip-rate)
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "study --help missing --${flag}: ${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${CLI} audit --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "audit --help exited ${rc}: ${err}")
endif()
if(NOT err MATCHES "--gazetteer")
  message(FATAL_ERROR "audit --help missing --gazetteer: ${err}")
endif()
