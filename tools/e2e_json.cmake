# The end-to-end gates' JSON check (tools/CMakeLists.txt):
#   cmake -D "FILES=<a.json;b.json;...>" [-D "KEYS=<key;...>"] -P e2e_json.cmake
# Every file must parse as JSON, and each key must read one value across
# every file; a file holding an array of rows (a nas_run sink) gives each
# row's value.  Values compare as CMake renders them, so arrays compare
# element by element.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(path IN LISTS FILES)
  file(READ "${path}" json)
  string(JSON type ERROR_VARIABLE error TYPE "${json}")
  if(error)
    message(FATAL_ERROR "${path}: not JSON: ${error}")
  endif()
  if(NOT type STREQUAL "ARRAY")
    set(json "[${json}]")
  endif()
  string(JSON rows LENGTH "${json}")
  if(rows EQUAL 0)
    message(FATAL_ERROR "${path}: no rows")
  endif()
  math(EXPR last "${rows} - 1")
  foreach(key IN LISTS KEYS)
    foreach(row RANGE ${last})
      string(JSON value GET "${json}" ${row} ${key})
      if(NOT DEFINED seen_${key})
        set(seen_${key} "${value}")
        set(seen_in_${key} "${path}")
      elseif(NOT "${value}" STREQUAL "${seen_${key}}")
        message(FATAL_ERROR "${key} differs: ${path} row ${row} has "
                            "${value}, ${seen_in_${key}} has ${seen_${key}}")
      endif()
    endforeach()
  endforeach()
endforeach()
