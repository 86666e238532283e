# partib_lint must survive any prefix of a real source file: every
# src/**/*.{hpp,cpp} is cut at K offsets drawn from SEED, and each cut is
# linted under its original path so every path-scoped check runs over it.
# Exit 0 (clean) or 1 (findings) passes; anything else (a usage/I-O error,
# or a crash, which execute_process reports as a non-numeric result)
# fails, naming the seed, file and offset.  Offsets are a pure function of
# (SEED, file index, cut index), so the whole run replays with the same
# -D values, and one failing cut replays by hand:
#
#   cmake -DLINT=<partib_lint> -DRULES=<rules.inc> -DSRC=<repo>/src
#         -DDIR=<output dir> -DSEED=<seed> -DK=<cuts per file>
#         -P run_fuzz_test.cmake
#   head -c <offset> src/<file> > cut.cpp
#   partib_lint --rules=src/check/rules.inc --as-path=src/<file> cut.cpp

foreach(var LINT RULES SRC DIR SEED K)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_fuzz_test.cmake: missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY ${DIR})
set(cut ${DIR}/cut.cpp)
file(GLOB_RECURSE sources RELATIVE ${SRC} ${SRC}/*.cpp ${SRC}/*.hpp)
set(failures "")
set(index 0)
set(cuts 0)

foreach(rel IN LISTS sources)
  file(READ ${SRC}/${rel} text)
  string(LENGTH "${text}" size)
  foreach(k RANGE 1 ${K})
    math(EXPR draw_seed "${SEED} * 1000003 + ${index} * ${K} + ${k}")
    # No zero digit: the draw is a plain decimal for math(EXPR).
    string(RANDOM LENGTH 9 ALPHABET 123456789 RANDOM_SEED ${draw_seed} draw)
    math(EXPR offset "${draw} % (${size} + 1)")
    string(SUBSTRING "${text}" 0 ${offset} prefix)
    file(WRITE ${cut} "${prefix}")
    execute_process(
      COMMAND ${LINT} --rules=${RULES} --as-path=src/${rel} ${cut}
      OUTPUT_QUIET
      ERROR_VARIABLE err
      RESULT_VARIABLE res)
    if(NOT res MATCHES "^[01]$")
      string(APPEND failures
             "  seed=${SEED} src/${rel} offset=${offset}: ${res} ${err}\n")
    endif()
    math(EXPR cuts "${cuts} + 1")
  endforeach()
  math(EXPR index "${index} + 1")
endforeach()

if(failures)
  message(FATAL_ERROR
    "partib_lint did not exit normally on truncated sources:\n${failures}")
endif()
message(STATUS "partib_lint: ${cuts} truncated sources, seed=${SEED}")
