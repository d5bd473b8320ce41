# A tiny ground-truth optimization populates subset_cache.json; the
# schema validator (validate_subset_cache.py) must accept what the
# optimizer writes.
set(dir ${WORKDIR}/subset_cache_campaign)
file(REMOVE_RECURSE ${dir})
execute_process(COMMAND ${TOOL} place optimize --error-model input
                        --budget-memory 250 --benefit ground-truth
                        --dir ${dir} --cases 2 --times 1
                OUTPUT_QUIET RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "place optimize --benefit ground-truth failed: ${rc1}")
endif()
if(NOT EXISTS ${dir}/subset_cache.json)
  message(FATAL_ERROR "ground-truth optimization wrote no ${dir}/subset_cache.json")
endif()
execute_process(COMMAND ${PYTHON} ${SRCDIR}/tools/validate_subset_cache.py
                        ${dir}/subset_cache.json
                RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "validate_subset_cache.py rejected the optimizer's cache: ${rc2}")
endif()
