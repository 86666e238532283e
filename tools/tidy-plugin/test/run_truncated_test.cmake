# partib_lint must survive malformed input: each case below is a source
# file cut off mid-construct (no trailing newline), linted as if it lived
# in src/part/ so every path-scoped check runs over it.  Exit 0 (clean) or
# 1 (findings) passes; a usage/I-O error or a crash (a signal, reported by
# execute_process as a non-numeric result) fails.
#
#   cmake -DLINT=<partib_lint> -DRULES=<rules.inc> -DDIR=<output dir>
#         -P run_truncated_test.cmake

foreach(var LINT RULES DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_truncated_test.cmake: missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY ${DIR})
set(failures "")

function(lint_case name text)
  set(file ${DIR}/${name}.cpp)
  file(WRITE ${file} "${text}")
  execute_process(
    COMMAND ${LINT} --rules=${RULES} --as-path=src/part/${name}.cpp ${file}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE res)
  if(NOT res MATCHES "^[01]$")
    set(failures "${failures}  ${name}: ${res} ${err}\n" PARENT_SCOPE)
  endif()
endfunction()

lint_case(raw_no_paren   [=[auto s = R"abc]=])
lint_case(raw_no_delim   [=[auto s = R"]=])
lint_case(raw_no_close   [=[auto s = R"abc(body )abc]=])
lint_case(string         [=[auto s = "abc]=])
lint_case(string_escape  [=[auto s = "abc\]=])
lint_case(char           [=[char c = ']=])
lint_case(block_comment  [=[int x; /* NOLINTBEGIN(partib-no-alloc-in-hot-path]=])
lint_case(line_comment   [=[int x; // NOLINTNEXTLINE]=])
lint_case(hot_body       [=[PARTIB_HOT void f() { auto* p = new int]=])
lint_case(spin_header    [=[void f() { while (flag.load(]=])
lint_case(report_call    [=[void f() { check::report(]=])
lint_case(raw_mutex      [=[std::]=])

if(failures)
  message(FATAL_ERROR "partib_lint did not exit normally on:\n${failures}")
endif()
