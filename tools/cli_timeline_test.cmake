# Flight-recorder end-to-end (DESIGN.md §15): a traced campaign run must
# leave a timeline.jsonl that the schema validator and `lint campaign`
# accept and a manifest.json that validates against its schema,
# `campaign status` must summarize it, `status --follow` must exit on
# its own once the campaign completes, and `obs report` must produce a
# phase breakdown whose totals reconcile with the trace.
set(DIR ${WORKDIR}/cli_timeline)
file(REMOVE_RECURSE ${DIR})

execute_process(COMMAND ${CMAKE_COMMAND} -E env EPEA_OBS_SAMPLE=1
                        ${TOOL} campaign run --dir ${DIR}
                        --cases 3 --times 2 --shards 2
                OUTPUT_VARIABLE out1 RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "campaign run failed: ${rc1}")
endif()
if(NOT EXISTS ${DIR}/timeline.jsonl)
  message(FATAL_ERROR "timeline.jsonl missing after campaign run")
endif()

# The flight recorder obeys its own contract: real artifacts lint clean.
execute_process(COMMAND ${TOOL} lint campaign --campaign-dir ${DIR}
                OUTPUT_VARIABLE lint_out RESULT_VARIABLE lint_rc)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "lint campaign failed on a genuine run:\n${lint_out}")
endif()

if(PYTHON)
  execute_process(COMMAND ${PYTHON} ${SRCDIR}/tools/validate_timeline.py
                          ${DIR}/timeline.jsonl
                  OUTPUT_VARIABLE val_out ERROR_VARIABLE val_err
                  RESULT_VARIABLE val_rc)
  if(NOT val_rc EQUAL 0)
    message(FATAL_ERROR "validate_timeline.py rejected a genuine timeline:\n"
                        "${val_out}${val_err}")
  endif()
  # The run's manifest validates against the committed manifest schema.
  execute_process(COMMAND ${PYTHON} ${SRCDIR}/tools/validate_manifest.py
                          ${DIR}/manifest.json
                  OUTPUT_VARIABLE man_out ERROR_VARIABLE man_err
                  RESULT_VARIABLE man_rc)
  if(NOT man_rc EQUAL 0)
    message(FATAL_ERROR "validate_manifest.py rejected a genuine manifest:\n"
                        "${man_out}${man_err}")
  endif()
endif()

# status summarizes the flight recorder; --follow exits once complete.
execute_process(COMMAND ${TOOL} campaign status --dir ${DIR}
                OUTPUT_VARIABLE out2 RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "campaign status failed: ${rc2}")
endif()
string(FIND "${out2}" "timeline:" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "status did not summarize the timeline:\n${out2}")
endif()
execute_process(COMMAND ${TOOL} campaign status --dir ${DIR}
                        --follow --interval 0.2
                OUTPUT_VARIABLE out3 RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "status --follow did not exit cleanly: ${rc3}")
endif()
string(FIND "${out3}" "complete" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "status --follow never saw completion:\n${out3}")
endif()

# Critical-path report, text and JSON.
execute_process(COMMAND ${TOOL} obs report ${DIR}
                OUTPUT_VARIABLE rep RESULT_VARIABLE rep_rc)
if(NOT rep_rc EQUAL 0)
  message(FATAL_ERROR "obs report failed: ${rep_rc}")
endif()
string(FIND "${rep}" "phase breakdown" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "obs report missing the phase breakdown:\n${rep}")
endif()
execute_process(COMMAND ${TOOL} obs report ${DIR} --json --top 3
                OUTPUT_VARIABLE repj RESULT_VARIABLE repj_rc)
if(NOT repj_rc EQUAL 0)
  message(FATAL_ERROR "obs report --json failed: ${repj_rc}")
endif()
string(FIND "${repj}" "\"phase_total_us\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "obs report --json missing phase_total_us:\n${repj}")
endif()
