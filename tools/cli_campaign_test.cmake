# End-to-end campaign CLI: run a tiny sharded campaign in two steps
# (pause after one shard, resume), then check status reports completion.
set(DIR ${WORKDIR}/cli_campaign)
file(REMOVE_RECURSE ${DIR})

execute_process(COMMAND ${TOOL} campaign run --dir ${DIR}
                        --cases 2 --times 1 --shards 2 --max-shards 1
                OUTPUT_VARIABLE out1 RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "campaign run failed: ${rc1}")
endif()
string(FIND "${out1}" "campaign paused" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected a paused campaign after --max-shards 1:\n${out1}")
endif()

execute_process(COMMAND ${TOOL} campaign status --dir ${DIR}
                OUTPUT_VARIABLE out2 RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "campaign status failed: ${rc2}")
endif()
string(FIND "${out2}" "shards done: 1/2" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "status did not report 1/2 shards:\n${out2}")
endif()

execute_process(COMMAND ${TOOL} campaign resume --dir ${DIR}
                OUTPUT_VARIABLE out3 RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "campaign resume failed: ${rc3}")
endif()
string(FIND "${out3}" "module,in_signal,out_signal" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "resume did not print the merged matrix CSV:\n${out3}")
endif()

execute_process(COMMAND ${TOOL} campaign status --dir ${DIR}
                OUTPUT_VARIABLE out4 RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "campaign status (final) failed: ${rc4}")
endif()
string(FIND "${out4}" "complete" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "final status not complete:\n${out4}")
endif()
if(NOT EXISTS ${DIR}/events.jsonl)
  message(FATAL_ERROR "events.jsonl missing")
endif()

# Engine equivalence for the severe model: the periodic plans run as
# lanes by default and replay under --no-batch; the printed results must
# match byte for byte, and the batched run must have launched lanes.
foreach(arm batch replay)
  set(SDIR ${WORKDIR}/cli_campaign-severe-${arm})
  file(REMOVE_RECURSE ${SDIR})
  set(extra "")
  if(arm STREQUAL "replay")
    set(extra --no-batch)
  endif()
  execute_process(COMMAND ${TOOL} campaign run --kind severe --cases 2 --dir ${SDIR}
                          ${extra}
                  OUTPUT_VARIABLE sout RESULT_VARIABLE src)
  if(NOT src EQUAL 0)
    message(FATAL_ERROR "severe campaign (${arm}) failed: ${src}\n${sout}")
  endif()
  string(FIND "${sout}" "severe model:" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "severe campaign (${arm}) printed no results:\n${sout}")
  endif()
  string(SUBSTRING "${sout}" ${pos} -1 ${arm}_results)
endforeach()
if(NOT batch_results STREQUAL replay_results)
  message(FATAL_ERROR "severe results differ between lanes and replay:\n"
                      "${batch_results}\n--- vs ---\n${replay_results}")
endif()
file(READ ${WORKDIR}/cli_campaign-severe-batch/events.jsonl severe_events)
if(NOT severe_events MATCHES "\"lanes_launched\":[1-9]")
  message(FATAL_ERROR "batched severe campaign launched no lanes:\n${severe_events}")
endif()

# Engine equivalence for permeability: the same tiny campaign batched and
# with --no-batch must merge to byte-identical CSVs, and the batched run
# reports its forks and lanes in events.jsonl, status and metrics.
foreach(arm batch replay)
  set(PDIR ${WORKDIR}/cli_campaign-perm-${arm})
  file(REMOVE_RECURSE ${PDIR})
  set(extra "")
  if(arm STREQUAL "replay")
    set(extra --no-batch)
  endif()
  execute_process(COMMAND ${TOOL} campaign run --dir ${PDIR} --cases 2 --times 1
                          --out ${PDIR}.csv ${extra}
                  OUTPUT_VARIABLE pout RESULT_VARIABLE prc)
  if(NOT prc EQUAL 0)
    message(FATAL_ERROR "permeability campaign (${arm}) failed: ${prc}\n${pout}")
  endif()
endforeach()
set(PBATCH ${WORKDIR}/cli_campaign-perm-batch)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${PBATCH}.csv ${WORKDIR}/cli_campaign-perm-replay.csv
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "batched and --no-batch permeability CSVs differ")
endif()
file(READ ${PBATCH}/events.jsonl perm_events)
foreach(key forked_runs lanes_launched)
  string(FIND "${perm_events}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "batched events.jsonl has no \"${key}\":\n${perm_events}")
  endif()
endforeach()
execute_process(COMMAND ${TOOL} campaign status --dir ${PBATCH}
                OUTPUT_VARIABLE pstatus RESULT_VARIABLE pstatus_rc)
if(NOT pstatus_rc EQUAL 0)
  message(FATAL_ERROR "campaign status (batched permeability) failed: ${pstatus_rc}")
endif()
foreach(line "fast path:" "batch lanes:")
  string(FIND "${pstatus}" "${line}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "status lacks a '${line}' line:\n${pstatus}")
  endif()
endforeach()
execute_process(COMMAND ${TOOL} campaign status --dir ${PBATCH} --metrics
                OUTPUT_VARIABLE pmetrics RESULT_VARIABLE pmetrics_rc)
if(NOT pmetrics_rc EQUAL 0 OR NOT pmetrics MATCHES "(^|\n)fi_lanes_launched ")
  message(FATAL_ERROR "status --metrics lacks fi_lanes_launched (${pmetrics_rc}):\n"
                      "${pmetrics}")
endif()
