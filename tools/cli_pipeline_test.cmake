# End-to-end CLI pipeline: estimate a tiny matrix, then analyze it.
execute_process(COMMAND ${TOOL} estimate --cases 1 --times 1
                        --out ${WORKDIR}/cli_matrix.csv
                RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "estimate failed: ${rc1}")
endif()
execute_process(COMMAND ${TOOL} analyze ${WORKDIR}/cli_matrix.csv --sink TOC2
                OUTPUT_VARIABLE out RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "analyze failed: ${rc2}")
endif()
foreach(needle "OutValue" "Backtrack tree" "High error exposure")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "analyze output missing '${needle}'")
  endif()
endforeach()

# Strict argument handling: version reports the build, while unknown
# subcommands and unknown flags exit 2 with usage on stderr.
execute_process(COMMAND ${TOOL} version
                OUTPUT_VARIABLE ver RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0 OR NOT ver MATCHES "^epea_tool [0-9]+\\.[0-9]+")
  message(FATAL_ERROR "version failed: rc=${rc3} out='${ver}'")
endif()

execute_process(COMMAND ${TOOL} frobnicate
                ERROR_VARIABLE err4 RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 2)
  message(FATAL_ERROR "unknown subcommand should exit 2, got ${rc4}")
endif()
if(NOT err4 MATCHES "unknown command" OR NOT err4 MATCHES "usage:")
  message(FATAL_ERROR "unknown subcommand missing diagnostics: ${err4}")
endif()

execute_process(COMMAND ${TOOL} describe --bogus
                ERROR_VARIABLE err5 RESULT_VARIABLE rc5)
if(NOT rc5 EQUAL 2)
  message(FATAL_ERROR "unknown flag should exit 2, got ${rc5}")
endif()
if(NOT err5 MATCHES "unknown flag --bogus" OR NOT err5 MATCHES "usage:")
  message(FATAL_ERROR "unknown flag missing diagnostics: ${err5}")
endif()

execute_process(COMMAND ${TOOL} estimate --cases
                RESULT_VARIABLE rc6)
if(NOT rc6 EQUAL 2)
  message(FATAL_ERROR "flag missing its value should exit 2, got ${rc6}")
endif()

# The committed frontier export is what `place frontier` writes today:
# the default analytic benefit reproduces frontier_placement_input.dot
# byte for byte (bench/frontier_placement writes the same file).
execute_process(COMMAND ${TOOL} place frontier --error-model input
                        --out-prefix ${WORKDIR}/cli_frontier
                RESULT_VARIABLE rc7 ERROR_VARIABLE err7)
if(NOT rc7 EQUAL 0)
  message(FATAL_ERROR "place frontier failed: rc=${rc7} ${err7}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/cli_frontier.dot
                        ${SRCDIR}/frontier_placement_input.dot
                RESULT_VARIABLE rc8)
if(NOT rc8 EQUAL 0)
  message(FATAL_ERROR "place frontier DOT differs from the committed "
                      "frontier_placement_input.dot; regenerate it with "
                      "bench/frontier_placement")
endif()

# Two benefit modes only: the deleted visibility mode and the old
# --ground-truth shorthand are rejected.
execute_process(COMMAND ${TOOL} place optimize --benefit visibility
                RESULT_VARIABLE rc9 ERROR_VARIABLE err9)
if(rc9 EQUAL 0 OR NOT err9 MATCHES "analytic\\|ground-truth")
  message(FATAL_ERROR "--benefit visibility should fail: rc=${rc9} ${err9}")
endif()
execute_process(COMMAND ${TOOL} place optimize --ground-truth
                RESULT_VARIABLE rc10 ERROR_QUIET)
if(NOT rc10 EQUAL 2)
  message(FATAL_ERROR "--ground-truth should be an unknown flag, got ${rc10}")
endif()

# Strict numbers: a malformed, negative or out-of-range value exits 2
# with a message naming the flag, instead of aborting on an uncaught
# exception or silently wrapping to a huge count.
foreach(bad "estimate;--cases;abc" "campaign;run;--dir;${WORKDIR}/cli_bad;--cases;-1"
            "campaign;run;--dir;${WORKDIR}/cli_bad;--times;-1")
  list(GET bad -2 flag)
  execute_process(COMMAND ${TOOL} ${bad}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag} expects")
    message(FATAL_ERROR "'${bad}' should exit 2 naming ${flag}: rc=${rc} ${err}")
  endif()
endforeach()
if(EXISTS ${WORKDIR}/cli_bad)
  message(FATAL_ERROR "a rejected campaign run created its directory")
endif()

# One campaign runner: the in-memory estimate matrix is byte-identical
# to a checkpointed `campaign run` of the same cases.
file(REMOVE_RECURSE ${WORKDIR}/cli_est_campaign)
execute_process(COMMAND ${TOOL} estimate --cases 2 --times 1
                        --out ${WORKDIR}/cli_est_memory.csv
                RESULT_VARIABLE rc11 ERROR_QUIET)
execute_process(COMMAND ${TOOL} campaign run --kind permeability --cases 2
                        --times 1 --dir ${WORKDIR}/cli_est_campaign
                        --out ${WORKDIR}/cli_est_campaign.csv
                RESULT_VARIABLE rc12 OUTPUT_QUIET ERROR_QUIET)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/cli_est_memory.csv ${WORKDIR}/cli_est_campaign.csv
                RESULT_VARIABLE rc13)
if(NOT rc11 EQUAL 0 OR NOT rc12 EQUAL 0 OR NOT rc13 EQUAL 0)
  message(FATAL_ERROR "estimate vs campaign run CSV: rc=${rc11}/${rc12}/${rc13}")
endif()

# Ground truth without --dir runs in memory and prints the same bytes
# as the checkpointed run under --dir.
file(REMOVE_RECURSE ${WORKDIR}/cli_gt_dir)
set(gt_args place optimize --benefit ground-truth --cases 2 --times 1 --json)
execute_process(COMMAND ${TOOL} ${gt_args}
                OUTPUT_VARIABLE gt_memory RESULT_VARIABLE rc14 ERROR_QUIET)
execute_process(COMMAND ${TOOL} ${gt_args} --dir ${WORKDIR}/cli_gt_dir
                OUTPUT_VARIABLE gt_dir RESULT_VARIABLE rc15 ERROR_QUIET)
if(NOT rc14 EQUAL 0 OR NOT rc15 EQUAL 0 OR NOT gt_memory STREQUAL gt_dir)
  message(FATAL_ERROR "ground truth without --dir differs: rc=${rc14}/${rc15}\n"
                      "${gt_memory}\nvs\n${gt_dir}")
endif()
