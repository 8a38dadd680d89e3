# Configures a scratch build tree with one UNIMATCH_* toggle OFF and builds
# the `unimatch` library target from clean. Backs the `buildcheck` ctest
# label (see CMakeLists.txt).
#
#   cmake -DSOURCE_DIR=<repo> -DBINARY_DIR=<scratch dir> -DGENERATOR=<gen> \
#         -DTOGGLE=UNIMATCH_METRICS -P tools/buildcheck.cmake
#
# The build goes through `cmake --build`, which honours the
# CMAKE_BUILD_PARALLEL_LEVEL environment variable. `ctest --build-and-test`
# does not: with Makefiles it runs a serial make whatever that variable says.
foreach(var SOURCE_DIR BINARY_DIR GENERATOR TOGGLE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "buildcheck.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR} -G ${GENERATOR}
          -D${TOGGLE}=OFF
          -DUNIMATCH_BUILD_TESTS=OFF
          -DUNIMATCH_BUILD_BENCH=OFF
          -DUNIMATCH_BUILD_EXAMPLES=OFF
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "buildcheck: configure with ${TOGGLE}=OFF failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} --target unimatch
          --clean-first
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "buildcheck: build with ${TOGGLE}=OFF failed")
endif()
