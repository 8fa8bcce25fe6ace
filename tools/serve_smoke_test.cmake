# End-to-end smoke test for the query-serving subsystem: generate a
# corpus, extract a real final user from the study report, drive
# stir_serve --stdio through every request type (plus one malformed
# line), and validate the responses and the server_stats counter
# invariants. DESIGN.md §10 documents the protocol under test.

execute_process(
  COMMAND ${CLI} generate --preset korean --scale 0.05
          --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()

# The report's users.csv gives us a user id that is guaranteed to be in
# the final sample, so lookup_user below must answer ok:true.
file(MAKE_DIRECTORY ${WORK_DIR}/serve_report)
execute_process(
  COMMAND ${CLI} study --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv
          --report-dir ${WORK_DIR}/serve_report
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "study failed (${rc}): ${out} ${err}")
endif()
file(STRINGS ${WORK_DIR}/serve_report/users.csv user_rows)
list(GET user_rows 1 first_user_row)
string(REGEX MATCH "^[0-9]+" final_user "${first_user_row}")
if(final_user STREQUAL "")
  message(FATAL_ERROR "could not extract a user id from: ${first_user_row}")
endif()

# One request per line: each protocol method, then a malformed line that
# must produce a parse_error response (not a dropped line), then
# server_stats — answered at admission, so its counters describe exactly
# the four lines before it plus itself. "Seoul Gangnam-gu" is stable:
# generation is seeded and the Korean preset always populates it.
file(WRITE ${WORK_DIR}/serve_requests.txt
"{\"v\":1,\"id\":1,\"method\":\"lookup_user\",\"params\":{\"user\":${final_user}}}
{\"v\":1,\"id\":2,\"method\":\"lookup_district\",\"params\":{\"state\":\"Seoul\",\"county\":\"Gangnam-gu\"}}
{\"v\":1,\"id\":3,\"method\":\"topk_summary\"}
this line is not json
{\"v\":1,\"id\":5,\"method\":\"server_stats\"}
")

execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio --workers 3
          --metrics-out ${WORK_DIR}/serve_metrics.json
  INPUT_FILE ${WORK_DIR}/serve_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE serve_out ERROR_VARIABLE serve_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stir_serve failed (${rc}): ${serve_out} ${serve_err}")
endif()
if(NOT serve_err MATCHES "index ready")
  message(FATAL_ERROR "missing index-ready notice: ${serve_err}")
endif()
if(NOT serve_err MATCHES "served 5 requests")
  message(FATAL_ERROR "expected 5 served requests: ${serve_err}")
endif()
if(NOT serve_err MATCHES "metrics written to")
  message(FATAL_ERROR "missing metrics export notice: ${serve_err}")
endif()

string(REGEX MATCHALL "[^\n]+" responses "${serve_out}")
list(LENGTH responses response_count)
if(NOT response_count EQUAL 5)
  message(FATAL_ERROR "expected 5 response lines, got ${response_count}:\n${serve_out}")
endif()

# Responses come back in request order; the malformed line still gets a
# well-formed error envelope.
list(GET responses 0 r_user)
list(GET responses 1 r_district)
list(GET responses 2 r_topk)
list(GET responses 3 r_malformed)
list(GET responses 4 r_stats)
foreach(pair "r_user;ok.:true" "r_district;ok.:true" "r_topk;ok.:true"
        "r_malformed;code.:.parse_error" "r_stats;ok.:true")
  list(GET pair 0 var)
  list(GET pair 1 pattern)
  if(NOT "${${var}}" MATCHES "\"${pattern}")
    message(FATAL_ERROR "${var} does not match ${pattern}: ${${var}}")
  endif()
endforeach()

# string(JSON) (CMake >= 3.19) lints every response and checks the
# server_stats accounting invariant; older CMake still runs everything
# above and the determinism / resume comparisons below.
if(NOT CMAKE_VERSION VERSION_LESS 3.19)
  string(JSON looked_up GET "${r_user}" result user)
  if(NOT looked_up EQUAL final_user)
    message(FATAL_ERROR "lookup_user echoed ${looked_up}, wanted ${final_user}")
  endif()
  string(JSON district GET "${r_district}" result district)
  if(NOT district STREQUAL "Seoul Gangnam-gu")
    message(FATAL_ERROR "lookup_district resolved '${district}'")
  endif()
  string(JSON topk_final GET "${r_topk}" result final_users)
  if(topk_final LESS 1)
    message(FATAL_ERROR "topk_summary final_users = ${topk_final}")
  endif()
  if(NOT r_malformed MATCHES "\"id\":null")
    message(FATAL_ERROR "parse_error response must carry id:null: ${r_malformed}")
  endif()

  # The stats request was line 5 of 5, so the admission-time counters
  # must describe the full stream: 3 admitted, 1 parse error, itself.
  string(JSON received GET "${r_stats}" result counters received)
  string(JSON admitted GET "${r_stats}" result counters admitted)
  string(JSON stats_served GET "${r_stats}" result counters stats_served)
  string(JSON parse_errors GET "${r_stats}" result counters parse_errors)
  string(JSON rej_overload GET "${r_stats}" result counters rejected_overload)
  string(JSON rej_shutdown GET "${r_stats}" result counters rejected_shutdown)
  math(EXPR accounted
       "${admitted} + ${stats_served} + ${parse_errors} + ${rej_overload} + ${rej_shutdown}")
  if(NOT received EQUAL accounted)
    message(FATAL_ERROR "server_stats does not balance: received ${received} "
            "!= admitted ${admitted} + stats ${stats_served} + parse ${parse_errors} "
            "+ overload ${rej_overload} + shutdown ${rej_shutdown}")
  endif()
  if(NOT received EQUAL 5 OR NOT admitted EQUAL 3 OR NOT parse_errors EQUAL 1)
    message(FATAL_ERROR "unexpected counters: received=${received} "
            "admitted=${admitted} parse_errors=${parse_errors}")
  endif()
  string(JSON m_user GET "${r_stats}" result methods lookup_user)
  string(JSON m_district GET "${r_stats}" result methods lookup_district)
  string(JSON m_topk GET "${r_stats}" result methods topk_summary)
  string(JSON m_stats GET "${r_stats}" result methods server_stats)
  math(EXPR method_sum "${m_user} + ${m_district} + ${m_topk} + ${m_stats}")
  math(EXPR handled "${admitted} + ${stats_served}")
  if(NOT method_sum EQUAL handled)
    message(FATAL_ERROR "method counters sum ${method_sum} != "
            "admitted + stats_served = ${handled}")
  endif()

  # The exported snapshot must mirror the in-band counters.
  file(READ ${WORK_DIR}/serve_metrics.json metrics_json)
  string(JSON metric_received GET "${metrics_json}" counters serve.requests.received)
  if(NOT metric_received EQUAL received)
    message(FATAL_ERROR "metrics serve.requests.received ${metric_received} "
            "!= server_stats received ${received}")
  endif()
  string(JSON metric_responses GET "${metrics_json}" counters serve.responses)
  if(NOT metric_responses EQUAL 5)
    message(FATAL_ERROR "metrics serve.responses = ${metric_responses}, wanted 5")
  endif()
endif()

# Determinism: the same request stream must serve byte-identically under
# a different worker count.
execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio --workers 1
  INPUT_FILE ${WORK_DIR}/serve_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE serial_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--workers 1 serve failed (${rc}): ${err}")
endif()
if(NOT serial_out STREQUAL serve_out)
  message(FATAL_ERROR "--workers 1 responses differ from --workers 3:\n"
          "=== workers 3 ===\n${serve_out}\n=== workers 1 ===\n${serial_out}")
endif()

# --- Graceful drain (mode symmetry, DESIGN.md §13) ---------------------
# Both front ends run the same net::EpollServer drain state machine;
# --drain-after N triggers it deterministically after the Nth framed
# line. Admitted lines are still answered, buffered lines get typed
# shutting_down envelopes echoing their ids, and a buffered malformed
# line still gets its parse_error (parsing precedes the draining
# check). The TCP half of the symmetry is byte-proven in
# tests/net_server_test.cc; here the stdio mode must show the same
# envelope sequence.
execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio --workers 3
          --drain-after 2
  INPUT_FILE ${WORK_DIR}/serve_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE drain_out ERROR_VARIABLE drain_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--drain-after serve failed (${rc}): ${drain_err}")
endif()
if(NOT drain_err MATCHES "graceful drain took")
  message(FATAL_ERROR "missing drain latency notice: ${drain_err}")
endif()
string(REGEX MATCHALL "[^\n]+" drain_responses "${drain_out}")
list(LENGTH drain_responses drain_count)
if(NOT drain_count EQUAL 5)
  message(FATAL_ERROR "drain run must answer all 5 lines, got ${drain_count}:\n${drain_out}")
endif()
list(GET drain_responses 0 d_first)
list(GET drain_responses 1 d_second)
list(GET drain_responses 2 d_third)
list(GET drain_responses 3 d_malformed)
list(GET drain_responses 4 d_stats)
foreach(pair "d_first;ok.:true" "d_second;ok.:true"
        "d_third;code.:.shutting_down" "d_malformed;code.:.parse_error"
        "d_stats;code.:.shutting_down")
  list(GET pair 0 var)
  list(GET pair 1 pattern)
  if(NOT "${${var}}" MATCHES "\"${pattern}")
    message(FATAL_ERROR "${var} does not match ${pattern}: ${${var}}")
  endif()
endforeach()
if(NOT d_third MATCHES "\"id\":3" OR NOT d_stats MATCHES "\"id\":5")
  message(FATAL_ERROR "shutting_down envelopes must echo request ids:\n${drain_out}")
endif()

# Index construction after checkpoint resume: a checkpointed run and a
# resumed run over the same directory must both answer byte-identically
# to the plain run.
file(REMOVE_RECURSE ${WORK_DIR}/serve_ckpt)
file(MAKE_DIRECTORY ${WORK_DIR}/serve_ckpt)
foreach(extra_flag "" "--resume")
  execute_process(
    COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
            --tweets ${WORK_DIR}/serve_tweets.tsv --stdio
            --checkpoint-dir ${WORK_DIR}/serve_ckpt ${extra_flag}
    INPUT_FILE ${WORK_DIR}/serve_requests.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE ckpt_out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "checkpointed serve '${extra_flag}' failed (${rc}): ${err}")
  endif()
  if(NOT ckpt_out STREQUAL serve_out)
    message(FATAL_ERROR "checkpointed serve '${extra_flag}' perturbed responses:\n"
            "=== baseline ===\n${serve_out}\n=== checkpointed ===\n${ckpt_out}")
  endif()
endforeach()
if(NOT EXISTS ${WORK_DIR}/serve_ckpt/geocode.journal)
  message(FATAL_ERROR "checkpointed serve left no geocode.journal")
endif()

# --- Streaming serve ---------------------------------------------------
# The incremental engine must answer the same request stream with the
# same bytes as the batch-built index it is proven equivalent to.
execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio --workers 3
          --stream
  INPUT_FILE ${WORK_DIR}/serve_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE stream_out ERROR_VARIABLE stream_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--stream serve failed (${rc}): ${stream_err}")
endif()
if(NOT stream_err MATCHES "streaming index ready")
  message(FATAL_ERROR "missing streaming-index-ready notice: ${stream_err}")
endif()
if(NOT stream_out STREQUAL serve_out)
  message(FATAL_ERROR "--stream responses differ from batch:\n"
          "=== batch ===\n${serve_out}\n=== stream ===\n${stream_out}")
endif()

# Live appends: index_info before and after an append_tweets request
# must show the generation advancing (epoch size 1 seals per tweet) and
# the appended user becoming visible — read-your-writes end to end.
file(WRITE ${WORK_DIR}/serve_append_requests.txt
"{\"v\":1,\"id\":1,\"method\":\"index_info\"}
{\"v\":1,\"id\":2,\"method\":\"append_tweets\",\"params\":{\"users\":[{\"id\":987654,\"location\":\"Seoul Mapo-gu\",\"total_tweets\":1}],\"tweets\":[{\"id\":987001,\"user\":987654,\"time\":1,\"lat\":37.55,\"lng\":126.94,\"text\":\"smoke\"}]}}
{\"v\":1,\"id\":3,\"method\":\"index_info\"}
{\"v\":1,\"id\":4,\"method\":\"lookup_user\",\"params\":{\"user\":987654}}
")
execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio
          --stream --epoch-size 1
  INPUT_FILE ${WORK_DIR}/serve_append_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE append_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "append smoke serve failed (${rc}): ${err}")
endif()
string(REGEX MATCHALL "[^\n]+" append_responses "${append_out}")
list(LENGTH append_responses append_count)
if(NOT append_count EQUAL 4)
  message(FATAL_ERROR "expected 4 append-smoke responses:\n${append_out}")
endif()
list(GET append_responses 0 r_info_before)
list(GET append_responses 1 r_append)
list(GET append_responses 2 r_info_after)
list(GET append_responses 3 r_appended_user)
foreach(var r_info_before r_append r_info_after r_appended_user)
  if(NOT "${${var}}" MATCHES "\"ok\":true")
    message(FATAL_ERROR "${var} not ok: ${${var}}")
  endif()
endforeach()
if(NOT CMAKE_VERSION VERSION_LESS 3.19)
  string(JSON gen_before GET "${r_info_before}" result generation)
  string(JSON gen_after GET "${r_info_after}" result generation)
  if(NOT gen_after GREATER gen_before)
    message(FATAL_ERROR "append did not advance the generation: "
            "${gen_before} -> ${gen_after}")
  endif()
  string(JSON is_streaming GET "${r_info_before}" result streaming)
  if(NOT is_streaming STREQUAL "ON")
    message(FATAL_ERROR "index_info streaming flag: ${is_streaming}")
  endif()
  string(JSON appended GET "${r_append}" result appended_tweets)
  if(NOT appended EQUAL 1)
    message(FATAL_ERROR "append_tweets appended ${appended} tweets, wanted 1")
  endif()
  string(JSON echoed GET "${r_appended_user}" result user)
  if(NOT echoed EQUAL 987654)
    message(FATAL_ERROR "appended user lookup echoed ${echoed}")
  endif()
endif()

# A batch server must refuse live appends.
file(WRITE ${WORK_DIR}/serve_append_reject.txt
"{\"v\":1,\"id\":1,\"method\":\"append_tweets\",\"params\":{}}
")
execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio
  INPUT_FILE ${WORK_DIR}/serve_append_reject.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE reject_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batch append-reject serve failed (${rc}): ${err}")
endif()
if(NOT reject_out MATCHES "not in streaming mode")
  message(FATAL_ERROR "batch server accepted append_tweets: ${reject_out}")
endif()

# --- Home inference (DESIGN.md §16) ------------------------------------
# infer_user round-trips over --stdio on the batch server (the evidence
# index is built from the same corpus by default): a real user answers
# with a decision or the typed low_confidence envelope, an unknown user
# gets not_found, a bogus strategy gets bad_request — and the whole
# stream is byte-deterministic across worker counts and under --stream.
file(WRITE ${WORK_DIR}/serve_infer_requests.txt
"{\"v\":1,\"id\":1,\"method\":\"infer_user\",\"params\":{\"user\":${final_user}}}
{\"v\":1,\"id\":2,\"method\":\"infer_user\",\"params\":{\"user\":${final_user},\"strategy\":\"spatial\"}}
{\"v\":1,\"id\":3,\"method\":\"infer_user\",\"params\":{\"user\":987654321}}
{\"v\":1,\"id\":4,\"method\":\"infer_user\",\"params\":{\"user\":${final_user},\"strategy\":\"astral\"}}
")
execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio --workers 3
  INPUT_FILE ${WORK_DIR}/serve_infer_requests.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE infer_out ERROR_VARIABLE infer_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "infer smoke serve failed (${rc}): ${infer_err}")
endif()
string(REGEX MATCHALL "[^\n]+" infer_responses "${infer_out}")
list(LENGTH infer_responses infer_count)
if(NOT infer_count EQUAL 4)
  message(FATAL_ERROR "expected 4 infer responses, got ${infer_count}:\n${infer_out}")
endif()
list(GET infer_responses 0 i_default)
list(GET infer_responses 1 i_spatial)
list(GET infer_responses 2 i_missing)
list(GET infer_responses 3 i_bogus)
foreach(var i_default i_spatial)
  if(NOT "${${var}}" MATCHES "\"ok\":true" AND
     NOT "${${var}}" MATCHES "\"code\":\"low_confidence\"")
    message(FATAL_ERROR "${var} is neither a decision nor a typed "
            "abstention: ${${var}}")
  endif()
endforeach()
if(i_default MATCHES "\"ok\":true" AND NOT i_default MATCHES "\"strategy\":\"diurnal\"")
  message(FATAL_ERROR "default infer_user decision must report the diurnal "
          "strategy: ${i_default}")
endif()
if(NOT i_missing MATCHES "\"code\":\"not_found\"")
  message(FATAL_ERROR "unknown user must answer not_found: ${i_missing}")
endif()
if(NOT i_bogus MATCHES "\"code\":\"bad_request\"")
  message(FATAL_ERROR "bogus strategy must answer bad_request: ${i_bogus}")
endif()

foreach(variant "--workers;1" "--workers;3;--stream")
  execute_process(
    COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
            --tweets ${WORK_DIR}/serve_tweets.tsv --stdio ${variant}
    INPUT_FILE ${WORK_DIR}/serve_infer_requests.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE variant_out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "infer serve '${variant}' failed (${rc}): ${err}")
  endif()
  if(NOT variant_out STREQUAL infer_out)
    message(FATAL_ERROR "infer responses diverge under '${variant}':\n"
            "=== baseline ===\n${infer_out}\n=== variant ===\n${variant_out}")
  endif()
endforeach()

# End-to-end evaluation path: generate a corpus with its ground-truth
# sidecar, then score all three strategies against it off disk.
execute_process(
  COMMAND ${CLI} generate --preset korean --scale 0.05
          --night-home-bias 0.65
          --corpus ${WORK_DIR}/infer_corpus.stir
  RESULT_VARIABLE rc OUTPUT_VARIABLE gen_out ERROR_VARIABLE gen_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate --corpus failed (${rc}): ${gen_out} ${gen_err}")
endif()
if(NOT gen_out MATCHES "truth records")
  message(FATAL_ERROR "generate --corpus wrote no truth sidecar notice: ${gen_out}")
endif()
if(NOT EXISTS ${WORK_DIR}/infer_corpus.stir.truth)
  message(FATAL_ERROR "truth sidecar missing next to the corpus")
endif()
execute_process(
  COMMAND ${CLI} infer --corpus ${WORK_DIR}/infer_corpus.stir
          --metrics-out ${WORK_DIR}/infer_metrics.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE eval_out ERROR_VARIABLE eval_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stir_cli infer failed (${rc}): ${eval_out} ${eval_err}")
endif()
foreach(needle "strategy spatial" "strategy diurnal" "strategy text"
        "accuracy@district" "abstain rate")
  if(NOT eval_out MATCHES "${needle}")
    message(FATAL_ERROR "infer report missing '${needle}':\n${eval_out}")
  endif()
endforeach()
file(READ ${WORK_DIR}/infer_metrics.json infer_metrics)
if(NOT infer_metrics MATCHES "infer.eval.diurnal.users")
  message(FATAL_ERROR "infer metrics export missing eval counters: ${infer_metrics}")
endif()

# --- CLI contract ------------------------------------------------------

execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "exactly one of --stdio / --port")
  message(FATAL_ERROR "missing front-end was accepted (${rc}): ${err}")
endif()

execute_process(
  COMMAND ${SERVE} --users ${WORK_DIR}/serve_users.tsv
          --tweets ${WORK_DIR}/serve_tweets.tsv --stdio
          --definitely-not-a-flag
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "unknown flag --definitely-not-a-flag")
  message(FATAL_ERROR "unknown flag was accepted (${rc}): ${err}")
endif()

execute_process(
  COMMAND ${SERVE} --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--help exited ${rc}: ${err}")
endif()
foreach(flag stdio port workers max-batch queue-capacity serve-fault-rate
        stream epoch-size max-pipeline max-connections tier1-fill tier2-fill
        drain-after infer-fill infer-strategy infer-abstain
        infer-night-weight checkpoint-dir resume crash-after lenient-load
        gazetteer io-fault-seed io-fault-write-error-rate
        io-fault-short-write-rate io-fault-fsync-error-rate
        io-fault-eintr-rate io-fault-enospc-after io-fault-page-flip-rate)
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "--help missing --${flag}: ${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${CLI} infer --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stir_cli infer --help exited ${rc}: ${err}")
endif()
foreach(flag corpus truth strategy abstain night-weight min-gps metrics-out
        lenient-load gazetteer)
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "infer --help missing --${flag}: ${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${CLI} generate --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stir_cli generate --help exited ${rc}: ${err}")
endif()
foreach(flag night-home-bias no-truth)
  if(NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "generate --help missing --${flag}: ${err}")
  endif()
endforeach()
